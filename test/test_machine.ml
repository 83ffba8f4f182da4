(* Unit and property tests for the simulated-machine substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* --- Addr -------------------------------------------------------------- *)

let test_page_constants () =
  check_int "page size" 4096 Addr.page_size;
  check_int "entries per table" 512 Addr.entries_per_table;
  check_int "superpage" (512 * 4096) Addr.superpage_size

let test_mfn_maddr_roundtrip () =
  List.iter
    (fun mfn -> check_int "roundtrip" mfn (Addr.mfn_of_maddr (Addr.maddr_of_mfn mfn)))
    [ 0; 1; 511; 512; 4095; 1 lsl 20 ]

let test_alignment () =
  check_bool "aligned" true (Addr.is_page_aligned 0x1000L);
  check_bool "unaligned" false (Addr.is_page_aligned 0x1001L);
  check_i64 "align down" 0x1000L (Addr.align_down 0x1FFFL);
  check_i64 "align up" 0x2000L (Addr.align_up 0x1001L);
  check_i64 "align up aligned" 0x1000L (Addr.align_up 0x1000L);
  check_int "offset" 0xABC (Addr.page_offset 0x1ABCL)

let test_canonical () =
  check_i64 "low canonical" 0x7FFF_FFFF_FFFFL (Addr.canonical 0x7FFF_FFFF_FFFFL);
  check_i64 "high canonical" 0xFFFF_8000_0000_0000L (Addr.canonical 0x0000_8000_0000_0000L);
  check_bool "is canonical low" true (Addr.is_canonical 0x1234L);
  check_bool "not canonical" false (Addr.is_canonical 0x0000_9000_0000_0000L)

let test_indices () =
  let va = Addr.of_indices ~l4:256 ~l3:1 ~l2:2 ~l1:3 ~offset:0x45 in
  check_int "l4" 256 (Addr.l4_index va);
  check_int "l3" 1 (Addr.l3_index va);
  check_int "l2" 2 (Addr.l2_index va);
  check_int "l1" 3 (Addr.l1_index va);
  check_int "offset" 0x45 (Addr.page_offset va);
  check_bool "canonical" true (Addr.is_canonical va)

let test_l4_slot_base () =
  check_i64 "slot 0" 0L (Addr.l4_slot_base 0);
  check_i64 "slot 256" 0xFFFF_8000_0000_0000L (Addr.l4_slot_base 256);
  check_i64 "slot 262" 0xFFFF_8300_0000_0000L (Addr.l4_slot_base 262);
  check_i64 "slot 272" 0xFFFF_8800_0000_0000L (Addr.l4_slot_base 272)

let prop_indices_roundtrip =
  QCheck.Test.make ~name:"of_indices/indices roundtrip" ~count:500
    QCheck.(quad (int_bound 511) (int_bound 511) (int_bound 511) (int_bound 511))
    (fun (l4, l3, l2, l1) ->
      let va = Addr.of_indices ~l4 ~l3 ~l2 ~l1 ~offset:0 in
      Addr.l4_index va = l4 && Addr.l3_index va = l3 && Addr.l2_index va = l2
      && Addr.l1_index va = l1 && Addr.is_canonical va)

(* --- Pte ---------------------------------------------------------------- *)

let test_pte_make () =
  let e = Pte.make ~mfn:0x1234 ~flags:[ Pte.Present; Pte.Rw ] in
  check_int "mfn" 0x1234 (Pte.mfn e);
  check_bool "present" true (Pte.test Pte.Present e);
  check_bool "rw" true (Pte.test Pte.Rw e);
  check_bool "user" false (Pte.test Pte.User e)

let test_pte_set_clear () =
  let e = Pte.none in
  check_bool "none not present" false (Pte.is_present e);
  let e = Pte.set Pte.Present e in
  check_bool "set" true (Pte.is_present e);
  let e = Pte.clear Pte.Present e in
  check_bool "clear" false (Pte.is_present e)

let test_pte_nx_bit () =
  let e = Pte.make ~mfn:1 ~flags:[ Pte.Nx ] in
  check_bool "nx" true (Pte.test Pte.Nx e);
  check_int "mfn unaffected" 1 (Pte.mfn e)

let test_flags_equal_modulo () =
  let a = Pte.make ~mfn:5 ~flags:[ Pte.Present; Pte.User ] in
  let b = Pte.set Pte.Rw a in
  check_bool "differ" false (Pte.flags_equal_modulo ~ignore:[] a b);
  check_bool "modulo rw" true (Pte.flags_equal_modulo ~ignore:[ Pte.Rw ] a b);
  let c = Pte.make ~mfn:6 ~flags:[ Pte.Present; Pte.User ] in
  check_bool "different mfn never equal" false (Pte.flags_equal_modulo ~ignore:[ Pte.Rw ] a c)

let all_flags =
  [ Pte.Present; Pte.Rw; Pte.User; Pte.Pwt; Pte.Pcd; Pte.Accessed; Pte.Dirty; Pte.Pse;
    Pte.Global; Pte.Avail0; Pte.Avail1; Pte.Avail2; Pte.Nx ]

let prop_pte_roundtrip =
  let flag_gen = QCheck.Gen.(map (List.filteri (fun i _ -> i land 1 = 0)) (return all_flags)) in
  ignore flag_gen;
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) (list_of_size Gen.(int_bound 12) (int_bound 12)))
    (fun (mfn, flag_idx) ->
      let flags = List.sort_uniq compare (List.map (List.nth all_flags) flag_idx) in
      let e = Pte.make ~mfn ~flags in
      Pte.mfn e = mfn && List.for_all (fun f -> Pte.test f e) flags
      && List.for_all (fun f -> List.mem f flags = Pte.test f e) all_flags)

(* --- Frame -------------------------------------------------------------- *)

let test_frame_u64 () =
  let f = Frame.create () in
  Frame.set_u64 f 0 0x1122334455667788L;
  check_i64 "read back" 0x1122334455667788L (Frame.get_u64 f 0);
  check_int "little endian" 0x88 (Frame.get_u8 f 0);
  check_int "high byte" 0x11 (Frame.get_u8 f 7)

let test_frame_entry () =
  let f = Frame.create () in
  Frame.set_entry f 511 42L;
  check_i64 "entry 511" 42L (Frame.get_u64 f (511 * 8));
  check_i64 "get_entry" 42L (Frame.get_entry f 511)

let test_frame_bounds () =
  let f = Frame.create () in
  Alcotest.check_raises "oob u64" (Invalid_argument "Frame: access [4089,+8) out of page")
    (fun () -> ignore (Frame.get_u64 f 4089));
  Alcotest.check_raises "negative" (Invalid_argument "Frame: access [-1,+1) out of page")
    (fun () -> ignore (Frame.get_u8 f (-1)))

let test_frame_copy_independent () =
  let f = Frame.create () in
  Frame.set_u8 f 0 1;
  let g = Frame.copy f in
  Frame.set_u8 f 0 2;
  check_int "copy unchanged" 1 (Frame.get_u8 g 0)

(* --- Phys_mem ------------------------------------------------------------ *)

let test_alloc_free () =
  let m = Phys_mem.create ~frames:8 in
  let a = Phys_mem.alloc m Phys_mem.Xen in
  let b = Phys_mem.alloc m (Phys_mem.Dom 1) in
  check_int "first" 0 a;
  check_int "second" 1 b;
  check_bool "owner a" true (Phys_mem.owner m a = Phys_mem.Xen);
  check_int "free count" 6 (Phys_mem.free_frames m);
  Phys_mem.free m a;
  check_int "freed" 7 (Phys_mem.free_frames m);
  let c = Phys_mem.alloc m Phys_mem.Xen in
  check_int "lowest reused" 0 c

let test_alloc_zeroed () =
  let m = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc m Phys_mem.Xen in
  Frame.set_u64 (Phys_mem.frame m a) 0 99L;
  Phys_mem.free m a;
  let b = Phys_mem.alloc m Phys_mem.Xen in
  check_i64 "zeroed on realloc" 0L (Frame.get_u64 (Phys_mem.frame m b) 0)

let test_exhaustion () =
  let m = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc m Phys_mem.Xen);
  ignore (Phys_mem.alloc m Phys_mem.Xen);
  Alcotest.check_raises "exhausted" (Failure "Phys_mem.alloc: out of physical memory") (fun () ->
      ignore (Phys_mem.alloc m Phys_mem.Xen))

let test_cross_frame_bytes () =
  let m = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc m Phys_mem.Xen);
  ignore (Phys_mem.alloc m Phys_mem.Xen);
  let addr = Int64.of_int (Addr.page_size - 4) in
  Phys_mem.write_bytes m addr (Bytes.of_string "ABCDEFGH");
  let got = Phys_mem.read_bytes m addr 8 in
  Alcotest.(check string) "cross-frame" "ABCDEFGH" (Bytes.to_string got);
  check_int "frame 1 byte" (Char.code 'E') (Phys_mem.read_u8 m (Int64.of_int Addr.page_size))

let test_bad_maddr () =
  let m = Phys_mem.create ~frames:1 in
  check_bool "raises" true
    (try
       ignore (Phys_mem.read_u8 m 0x10000L);
       false
     with Phys_mem.Bad_maddr _ -> true)

let test_owned_list () =
  let m = Phys_mem.create ~frames:4 in
  let a = Phys_mem.alloc m (Phys_mem.Dom 7) in
  let b = Phys_mem.alloc m (Phys_mem.Dom 7) in
  ignore (Phys_mem.alloc m Phys_mem.Xen);
  Alcotest.(check (list int)) "owned" [ a; b ] (Phys_mem.frames_owned_by m (Phys_mem.Dom 7))

let prop_phys_write_read =
  QCheck.Test.make ~name:"phys u64 write/read" ~count:300
    QCheck.(pair (int_bound (8 * 4096 - 8)) (map Int64.of_int int))
    (fun (off, v) ->
      let m = Phys_mem.create ~frames:8 in
      for _ = 1 to 8 do
        ignore (Phys_mem.alloc m Phys_mem.Xen)
      done;
      let off = off - (off mod 8) in
      let addr = Int64.of_int off in
      Phys_mem.write_u64 m addr v;
      Phys_mem.read_u64 m addr = v)

(* --- Layout -------------------------------------------------------------- *)

let test_regions () =
  let r va = Layout.region_of_vaddr va in
  check_bool "guest low" true (r 0x1000L = Layout.Guest_low);
  check_bool "m2p" true (r Layout.m2p_base = Layout.M2p);
  check_bool "linear" true (r Layout.linear_pt_base = Layout.Linear_pt);
  check_bool "linear end" true (r Layout.linear_pt_end = Layout.Linear_pt);
  check_bool "extra" true (r (Addr.l4_slot_base 258) = Layout.Xen_extra);
  check_bool "private" true (r (Addr.l4_slot_base 260) = Layout.Xen_private);
  check_bool "directmap" true (r Layout.directmap_base = Layout.Direct_map);
  check_bool "kernel" true (r Layout.guest_kernel_base = Layout.Guest_kernel)

let test_guest_access_hardening () =
  let ga h va = Layout.guest_access ~hardened:h va in
  check_bool "m2p ro" true (ga false Layout.m2p_base = Layout.Read_only);
  check_bool "m2p ro hardened" true (ga true Layout.m2p_base = Layout.Read_only);
  check_bool "linear rw pre" true (ga false Layout.linear_pt_base = Layout.Read_write);
  check_bool "linear blocked hardened" true (ga true Layout.linear_pt_base = Layout.No_access);
  check_bool "extra rw pre" true (ga false (Addr.l4_slot_base 258) = Layout.Read_write);
  check_bool "extra blocked hardened" true (ga true (Addr.l4_slot_base 258) = Layout.No_access);
  check_bool "directmap never" true (ga false Layout.directmap_base = Layout.No_access);
  check_bool "kernel always" true (ga true Layout.guest_kernel_base = Layout.Read_write)

let test_directmap_roundtrip () =
  let ma = 0x123456L in
  let va = Layout.directmap_of_maddr ma in
  check_bool "roundtrip" true (Layout.maddr_of_directmap va = Some ma);
  check_bool "not directmap" true (Layout.maddr_of_directmap 0x1000L = None)

let test_l4_slot_rules () =
  check_bool "xen slot 256" true (Layout.is_xen_l4_slot 256);
  check_bool "xen slot 262" true (Layout.is_xen_l4_slot 262);
  check_bool "not 258" false (Layout.is_xen_l4_slot 258);
  check_bool "guest may own 0" true (Layout.guest_may_own_l4_slot ~hardened:false 0);
  check_bool "guest may own 258 pre" true (Layout.guest_may_own_l4_slot ~hardened:false 258);
  check_bool "guest 258 hardened" false (Layout.guest_may_own_l4_slot ~hardened:true 258);
  check_bool "never 256" false (Layout.guest_may_own_l4_slot ~hardened:false 256);
  check_bool "never 262" false (Layout.guest_may_own_l4_slot ~hardened:false 262);
  check_bool "out of range" false (Layout.guest_may_own_l4_slot ~hardened:false 512)

let prop_guest_never_writes_xen =
  QCheck.Test.make ~name:"directmap/private never guest accessible" ~count:300
    QCheck.(pair bool (int_bound 0xFFFF))
    (fun (hardened, off) ->
      let va = Int64.add Layout.directmap_base (Int64.of_int (off * 8)) in
      Layout.guest_access ~hardened va = Layout.No_access)

(* --- Paging -------------------------------------------------------------- *)

(* Build a tiny address space by hand: cr3 -> l3 -> l2 -> l1 -> data. *)
let tiny_space () =
  let m = Phys_mem.create ~frames:16 in
  let alloc () = Phys_mem.alloc m Phys_mem.Xen in
  let l4 = alloc () and l3 = alloc () and l2 = alloc () and l1 = alloc () and data = alloc () in
  let inter target = Pte.make ~mfn:target ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:5 ~offset:0 in
  Frame.set_entry (Phys_mem.frame m l4) 0 (inter l3);
  Frame.set_entry (Phys_mem.frame m l3) 0 (inter l2);
  Frame.set_entry (Phys_mem.frame m l2) 0 (inter l1);
  Frame.set_entry (Phys_mem.frame m l1) 5 (Pte.make ~mfn:data ~flags:[ Pte.Present; Pte.Rw; Pte.User ]);
  (m, l4, l1, data, va)

let test_walk_success () =
  let m, l4, _, data, va = tiny_space () in
  match Paging.walk m ~cr3:l4 va with
  | Ok tr ->
      check_i64 "maddr" (Addr.maddr_of_mfn data) tr.Paging.t_maddr;
      check_bool "writable" true tr.Paging.writable;
      check_bool "user" true tr.Paging.user;
      check_bool "not superpage" false tr.Paging.superpage;
      check_int "path length" 4 (List.length tr.Paging.path)
  | Error _ -> Alcotest.fail "walk failed"

let test_walk_not_present () =
  let m, l4, _, _, _ = tiny_space () in
  let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:9 ~offset:0 in
  (match Paging.walk m ~cr3:l4 va with
  | Error (Paging.Not_present 1) -> ()
  | _ -> Alcotest.fail "expected not-present at L1");
  let va = Addr.of_indices ~l4:3 ~l3:0 ~l2:0 ~l1:0 ~offset:0 in
  match Paging.walk m ~cr3:l4 va with
  | Error (Paging.Not_present 4) -> ()
  | _ -> Alcotest.fail "expected not-present at L4"

let test_walk_rw_anded () =
  let m, l4, l1, data, va = tiny_space () in
  Frame.set_entry (Phys_mem.frame m l1) 5 (Pte.make ~mfn:data ~flags:[ Pte.Present; Pte.User ]);
  (match Paging.walk m ~cr3:l4 va with
  | Ok tr -> check_bool "leaf ro" false tr.Paging.writable
  | Error _ -> Alcotest.fail "walk");
  match Paging.translate m ~cr3:l4 ~kind:Paging.Write ~user:true va with
  | Error { Paging.reason = Paging.Write_to_readonly; _ } -> ()
  | _ -> Alcotest.fail "expected write fault"

let test_walk_user_anded () =
  let m, l4, l1, data, va = tiny_space () in
  Frame.set_entry (Phys_mem.frame m l1) 5 (Pte.make ~mfn:data ~flags:[ Pte.Present; Pte.Rw ]);
  match Paging.translate m ~cr3:l4 ~kind:Paging.Read ~user:true va with
  | Error { Paging.reason = Paging.User_access_to_supervisor; _ } -> ()
  | _ -> Alcotest.fail "expected user fault"

let test_superpage_walk () =
  let m = Phys_mem.create ~frames:16 in
  let alloc () = Phys_mem.alloc m Phys_mem.Xen in
  let l4 = alloc () and l3 = alloc () and l2 = alloc () in
  let inter t = Pte.make ~mfn:t ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  Frame.set_entry (Phys_mem.frame m l4) 0 (inter l3);
  Frame.set_entry (Phys_mem.frame m l3) 0 (inter l2);
  (* PSE entry with an unaligned mfn: hardware rounds down to the
     512-frame boundary (0 here). *)
  Frame.set_entry (Phys_mem.frame m l2) 1
    (Pte.make ~mfn:7 ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Pse ]);
  let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:3 ~offset:0x10 in
  match Paging.walk m ~cr3:l4 va with
  | Ok tr ->
      check_bool "superpage" true tr.Paging.superpage;
      check_i64 "maddr within superpage" (Int64.of_int ((3 * 4096) + 0x10)) tr.Paging.t_maddr;
      check_int "path stops at l2" 3 (List.length tr.Paging.path)
  | Error _ -> Alcotest.fail "superpage walk failed"

let test_non_canonical () =
  let m, l4, _, _, _ = tiny_space () in
  match Paging.translate m ~cr3:l4 ~kind:Paging.Read ~user:false 0x0000_9000_0000_0000L with
  | Error { Paging.reason = Paging.Non_canonical; _ } -> ()
  | _ -> Alcotest.fail "expected non-canonical fault"

let test_nx () =
  let m, l4, l1, data, va = tiny_space () in
  Frame.set_entry (Phys_mem.frame m l1) 5
    (Pte.make ~mfn:data ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Nx ]);
  match Paging.translate m ~cr3:l4 ~kind:Paging.Exec ~user:true va with
  | Error { Paging.reason = Paging.Nx_violation; _ } -> ()
  | _ -> Alcotest.fail "expected NX fault"

let test_walk_path_on_fault () =
  let m, l4, _, _, _ = tiny_space () in
  let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:9 ~offset:0 in
  let path = Paging.walk_path m ~cr3:l4 va in
  check_int "partial path recorded" 4 (List.length path)

let prop_walk_agrees_with_translate =
  QCheck.Test.make ~name:"translate(read,supervisor) succeeds iff walk does" ~count:200
    QCheck.(pair (int_bound 15) (int_bound 511))
    (fun (l1_idx, _) ->
      let m, l4, _, _, _ = tiny_space () in
      let va = Addr.of_indices ~l4:0 ~l3:0 ~l2:0 ~l1:l1_idx ~offset:0 in
      let w = Paging.walk m ~cr3:l4 va in
      let t = Paging.translate m ~cr3:l4 ~kind:Paging.Read ~user:false va in
      Result.is_ok w = Result.is_ok t)

(* [l1_entry_maddr] is [walk_path]'s level-1 step without the list:
   over forged tables (entries not present, superpages, bits above the
   frame number, table frames outside RAM) both find the same slot, or none. Frames 0..7 each hold
   forged entries at indices 0 and 1; the walk starts at frame 0. *)
let prop_l1_entry_maddr_is_walk_path_l1 =
  QCheck.Test.make ~name:"l1_entry_maddr = walk_path's L1 step" ~count:300
    QCheck.(list_of_size (Gen.return 16) (pair (int_bound 19) (int_bound 4)))
    (fun entries ->
      let m = Phys_mem.create ~frames:16 in
      List.iteri
        (fun i (mfn, kind) ->
          let flags =
            match kind with
            | 0 -> []
            | 1 -> [ Pte.Present; Pte.Rw ]
            | 2 -> [ Pte.Present; Pte.Pse ]
            | 3 -> [ Pte.Present; Pte.Nx ]
            | _ -> [ Pte.Present; Pte.User ]
          in
          (* kind 3 also sets bit 52, above the frame-number field *)
          let high = if kind = 3 then 0x0010_0000_0000_0000L else 0L in
          Frame.set_entry (Phys_mem.frame m (i / 2)) (i mod 2)
            (Int64.logor high (Pte.make ~mfn ~flags)))
        entries;
      List.for_all
        (fun bits ->
          let b k = (bits lsr k) land 1 in
          let va = Addr.of_indices ~l4:(b 0) ~l3:(b 1) ~l2:(b 2) ~l1:(b 3) ~offset:0 in
          let expect =
            match List.find_opt (fun s -> s.Paging.level = 1) (Paging.walk_path m ~cr3:0 va) with
            | Some s -> (s.Paging.table_mfn lsl Addr.page_shift) + (8 * s.Paging.index)
            | None -> -1
          in
          Paging.l1_entry_maddr m ~cr3:0 va = expect)
        (List.init 16 Fun.id))

(* --- Idt ------------------------------------------------------------------ *)

let test_idt_gate_roundtrip () =
  let m = Phys_mem.create ~frames:2 in
  let idt = Phys_mem.alloc m Phys_mem.Xen in
  Idt.init m idt;
  let gate = { Idt.handler = 0xFFFF_8300_0000_1234L; selector = Idt.xen_code_selector; gate_present = true } in
  Idt.write_gate m idt 14 gate;
  let got = Idt.read_gate m idt 14 in
  check_i64 "handler" gate.Idt.handler got.Idt.handler;
  check_int "selector" 0xe008 got.Idt.selector;
  check_bool "present" true got.Idt.gate_present

let test_idt_raw_offsets () =
  (* The crash exploit computes the handler's byte offset directly. *)
  check_int "pf gate offset" (14 * 16) (Idt.handler_offset 14);
  let m = Phys_mem.create ~frames:2 in
  let idt = Phys_mem.alloc m Phys_mem.Xen in
  Idt.write_gate m idt 14
    { Idt.handler = 0xAAL; selector = 0xe008; gate_present = true };
  check_i64 "raw read" 0xAAL (Frame.get_u64 (Phys_mem.frame m idt) (14 * 16))

let test_idt_vector_range () =
  let m = Phys_mem.create ~frames:2 in
  let idt = Phys_mem.alloc m Phys_mem.Xen in
  Alcotest.check_raises "bad vector" (Invalid_argument "Idt: vector out of range") (fun () ->
      ignore (Idt.read_gate m idt 256))

(* --- Cpu ------------------------------------------------------------------- *)

let cpu_space ~hardened =
  let m = Phys_mem.create ~frames:32 in
  let cpu = Cpu.create m ~hardened in
  let alloc () = Phys_mem.alloc m Phys_mem.Xen in
  let l4 = alloc () and l3 = alloc () and l2 = alloc () and l1 = alloc () and data = alloc () in
  let inter t = Pte.make ~mfn:t ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  let kslot = Addr.l4_index Layout.guest_kernel_base in
  Frame.set_entry (Phys_mem.frame m l4) kslot (inter l3);
  Frame.set_entry (Phys_mem.frame m l3) 0 (inter l2);
  Frame.set_entry (Phys_mem.frame m l2) 0 (inter l1);
  Frame.set_entry (Phys_mem.frame m l1) 0 (inter data);
  (m, cpu, l4, data, Layout.guest_kernel_base)

let test_cpu_kernel_rw () =
  let _, cpu, l4, _, va = cpu_space ~hardened:false in
  (match Cpu.write_u64 cpu ~ring:Cpu.Kernel ~cr3:l4 va 7L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write");
  match Cpu.read_u64 cpu ~ring:Cpu.Kernel ~cr3:l4 va with
  | Ok v -> check_i64 "read back" 7L v
  | Error _ -> Alcotest.fail "read"

let test_cpu_hyp_directmap () =
  let m, cpu, l4, data, _ = cpu_space ~hardened:false in
  let va = Layout.directmap_of_maddr (Addr.maddr_of_mfn data) in
  (match Cpu.write_u64 cpu ~ring:Cpu.Hyp ~cr3:l4 va 9L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "hyp write");
  check_i64 "phys visible" 9L (Phys_mem.read_u64 m (Addr.maddr_of_mfn data))

let test_cpu_hyp_rejects_guest_va () =
  let _, cpu, l4, _, va = cpu_space ~hardened:false in
  match Cpu.read_u64 cpu ~ring:Cpu.Hyp ~cr3:l4 va with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hyp ring must not resolve guest-kernel vaddrs"

let test_cpu_guest_blocked_from_directmap () =
  let _, cpu, l4, data, _ = cpu_space ~hardened:false in
  let va = Layout.directmap_of_maddr (Addr.maddr_of_mfn data) in
  match Cpu.read_u64 cpu ~ring:Cpu.Kernel ~cr3:l4 va with
  | Error { Paging.reason = Paging.Layout_denied Layout.Direct_map; _ } -> ()
  | _ -> Alcotest.fail "expected layout denial"

let test_cpu_layout_hardening () =
  let check_access hardened expect =
    let _, cpu, l4, _, _ = cpu_space ~hardened in
    let va = Layout.linear_pt_base in
    let got =
      match Cpu.read_u64 cpu ~ring:Cpu.Kernel ~cr3:l4 va with
      | Error { Paging.reason = Paging.Layout_denied _; _ } -> `Denied
      | Error _ -> `Fault
      | Ok _ -> `Ok
    in
    check_bool "hardening behaviour" true (got = expect)
  in
  (* pre-hardening: the region is allowed by layout (then faults on the
     empty tables); hardened: denied outright. *)
  check_access false `Fault;
  check_access true `Denied

let test_cpu_exception_delivery () =
  let m, cpu, _, _, _ = cpu_space ~hardened:false in
  let idt = Phys_mem.alloc m Phys_mem.Xen in
  Idt.init m idt;
  Cpu.set_idt cpu idt;
  let handler = 0xFFFF_8300_0000_4000L in
  Cpu.register_handler cpu handler "page_fault";
  Idt.write_gate m idt 14 { Idt.handler; selector = 0xe008; gate_present = true };
  Idt.write_gate m idt 8 { Idt.handler; selector = 0xe008; gate_present = true };
  (match Cpu.deliver_exception cpu ~vector:14 with
  | Cpu.Handled { handler_label; _ } -> Alcotest.(check string) "label" "page_fault" handler_label
  | _ -> Alcotest.fail "expected handled");
  (* corrupt the PF gate: double fault *)
  Idt.write_gate m idt 14 { Idt.handler = 0xBADL; selector = 0xe008; gate_present = true };
  (match Cpu.deliver_exception cpu ~vector:14 with
  | Cpu.Double_fault_panic { first_vector; bad_handler } ->
      check_int "vector" 14 first_vector;
      check_i64 "bad handler" 0xBADL bad_handler
  | _ -> Alcotest.fail "expected double fault");
  (* corrupt the DF gate too: triple fault *)
  Idt.write_gate m idt 8 { Idt.handler = 0xBAD2L; selector = 0xe008; gate_present = true };
  match Cpu.deliver_exception cpu ~vector:14 with
  | Cpu.Triple_fault -> ()
  | _ -> Alcotest.fail "expected triple fault"

let test_cpu_sidt () =
  let m, cpu, _, _, _ = cpu_space ~hardened:false in
  let idt = Phys_mem.alloc m Phys_mem.Xen in
  Cpu.set_idt cpu idt;
  check_i64 "sidt is directmap of idt" (Layout.directmap_of_maddr (Addr.maddr_of_mfn idt))
    (Cpu.sidt cpu)

let test_cpu_bytes_cross_page () =
  let m, cpu, l4, _, va = cpu_space ~hardened:false in
  (* map a second page right after the first *)
  let l1 =
    match Paging.walk m ~cr3:l4 va with
    | Ok tr -> (List.nth tr.Paging.path 3).Paging.table_mfn
    | Error _ -> Alcotest.fail "walk"
  in
  let data2 = Phys_mem.alloc m Phys_mem.Xen in
  Frame.set_entry (Phys_mem.frame m l1) 1
    (Pte.make ~mfn:data2 ~flags:[ Pte.Present; Pte.Rw; Pte.User ]);
  let addr = Int64.add va (Int64.of_int (Addr.page_size - 3)) in
  (match Cpu.write_bytes cpu ~ring:Cpu.Kernel ~cr3:l4 addr (Bytes.of_string "XYZW12") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "cross-page write");
  match Cpu.read_bytes cpu ~ring:Cpu.Kernel ~cr3:l4 addr 6 with
  | Ok b -> Alcotest.(check string) "cross-page" "XYZW12" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "cross-page read"

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "machine"
    [
      ( "addr",
        [
          Alcotest.test_case "page constants" `Quick test_page_constants;
          Alcotest.test_case "mfn/maddr roundtrip" `Quick test_mfn_maddr_roundtrip;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "canonical" `Quick test_canonical;
          Alcotest.test_case "indices" `Quick test_indices;
          Alcotest.test_case "l4 slot bases" `Quick test_l4_slot_base;
        ]
        @ qsuite [ prop_indices_roundtrip ] );
      ( "pte",
        [
          Alcotest.test_case "make" `Quick test_pte_make;
          Alcotest.test_case "set/clear" `Quick test_pte_set_clear;
          Alcotest.test_case "nx bit" `Quick test_pte_nx_bit;
          Alcotest.test_case "flags_equal_modulo" `Quick test_flags_equal_modulo;
        ]
        @ qsuite [ prop_pte_roundtrip ] );
      ( "frame",
        [
          Alcotest.test_case "u64 little endian" `Quick test_frame_u64;
          Alcotest.test_case "entries" `Quick test_frame_entry;
          Alcotest.test_case "bounds" `Quick test_frame_bounds;
          Alcotest.test_case "copy independence" `Quick test_frame_copy_independent;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "zeroed on realloc" `Quick test_alloc_zeroed;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "cross-frame bytes" `Quick test_cross_frame_bytes;
          Alcotest.test_case "bad maddr" `Quick test_bad_maddr;
          Alcotest.test_case "owned list" `Quick test_owned_list;
        ]
        @ qsuite [ prop_phys_write_read ] );
      ( "layout",
        [
          Alcotest.test_case "regions" `Quick test_regions;
          Alcotest.test_case "hardening" `Quick test_guest_access_hardening;
          Alcotest.test_case "directmap roundtrip" `Quick test_directmap_roundtrip;
          Alcotest.test_case "l4 slot rules" `Quick test_l4_slot_rules;
        ]
        @ qsuite [ prop_guest_never_writes_xen ] );
      ( "paging",
        [
          Alcotest.test_case "walk success" `Quick test_walk_success;
          Alcotest.test_case "not present" `Quick test_walk_not_present;
          Alcotest.test_case "rw anded" `Quick test_walk_rw_anded;
          Alcotest.test_case "user anded" `Quick test_walk_user_anded;
          Alcotest.test_case "superpage" `Quick test_superpage_walk;
          Alcotest.test_case "non-canonical" `Quick test_non_canonical;
          Alcotest.test_case "nx" `Quick test_nx;
          Alcotest.test_case "walk path on fault" `Quick test_walk_path_on_fault;
        ]
        @ qsuite [ prop_walk_agrees_with_translate; prop_l1_entry_maddr_is_walk_path_l1 ] );
      ( "idt",
        [
          Alcotest.test_case "gate roundtrip" `Quick test_idt_gate_roundtrip;
          Alcotest.test_case "raw offsets" `Quick test_idt_raw_offsets;
          Alcotest.test_case "vector range" `Quick test_idt_vector_range;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "kernel rw" `Quick test_cpu_kernel_rw;
          Alcotest.test_case "hyp directmap" `Quick test_cpu_hyp_directmap;
          Alcotest.test_case "hyp rejects guest va" `Quick test_cpu_hyp_rejects_guest_va;
          Alcotest.test_case "guest blocked from directmap" `Quick test_cpu_guest_blocked_from_directmap;
          Alcotest.test_case "layout hardening" `Quick test_cpu_layout_hardening;
          Alcotest.test_case "exception delivery" `Quick test_cpu_exception_delivery;
          Alcotest.test_case "sidt" `Quick test_cpu_sidt;
          Alcotest.test_case "bytes cross page" `Quick test_cpu_bytes_cross_page;
        ] );
    ]
