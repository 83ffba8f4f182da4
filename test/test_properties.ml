(* Cross-cutting property tests: structural invariants that must hold
   for arbitrary inputs, checked with qcheck. *)

open Ii_xen
open Ii_guest
open Ii_core

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

(* --- Layout ------------------------------------------------------------- *)

let arb_canonical =
  QCheck.map
    (fun (hi, lo) ->
      Addr.canonical (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)))
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0x3FFF_FFFF))

let prop_layout_total =
  QCheck.Test.make ~name:"every canonical address has exactly one region" ~count:2000
    arb_canonical
    (fun va ->
      (* region_of_vaddr is total and stable *)
      Layout.region_of_vaddr va = Layout.region_of_vaddr va)

let access_rank = function Layout.No_access -> 0 | Layout.Read_only -> 1 | Layout.Read_write -> 2

let prop_hardening_monotone =
  QCheck.Test.make ~name:"hardening never grants access it previously denied" ~count:2000
    arb_canonical
    (fun va ->
      access_rank (Layout.guest_access ~hardened:true va)
      <= access_rank (Layout.guest_access ~hardened:false va))

let prop_guest_and_hyp_disjoint_on_writes =
  QCheck.Test.make ~name:"no address is writable by both guest policy and hypervisor policy"
    ~count:2000 arb_canonical
    (fun va ->
      not
        (Layout.guest_access ~hardened:false va = Layout.Read_write
        && Layout.hypervisor_access va = Layout.Read_write))

let prop_directmap_roundtrip =
  QCheck.Test.make ~name:"directmap_of_maddr/maddr_of_directmap roundtrip" ~count:1000
    QCheck.(int_bound 0x3FFF_FFFF)
    (fun off ->
      let ma = Int64.of_int off in
      Layout.maddr_of_directmap (Layout.directmap_of_maddr ma) = Some ma)

(* --- Pte ------------------------------------------------------------------ *)

let arb_pte =
  QCheck.map
    (fun (mfn, bits) ->
      let flags =
        List.filteri
          (fun i _ -> bits land (1 lsl i) <> 0)
          [ Pte.Present; Pte.Rw; Pte.User; Pte.Pse; Pte.Nx; Pte.Accessed; Pte.Dirty; Pte.Global ]
      in
      Pte.make ~mfn ~flags)
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 255))

let prop_flags_equal_modulo_reflexive =
  QCheck.Test.make ~name:"flags_equal_modulo is reflexive" ~count:500 arb_pte (fun e ->
      Pte.flags_equal_modulo ~ignore:[] e e)

let prop_flags_equal_modulo_ignores =
  QCheck.Test.make ~name:"toggling an ignored flag preserves equality-modulo" ~count:500 arb_pte
    (fun e ->
      let e' = if Pte.test Pte.Rw e then Pte.clear Pte.Rw e else Pte.set Pte.Rw e in
      Pte.flags_equal_modulo ~ignore:[ Pte.Rw ] e e'
      && not (Pte.flags_equal_modulo ~ignore:[] e e'))

(* --- Grant-table wire entries ---------------------------------------------- *)

let prop_grant_wire_roundtrip =
  QCheck.Test.make ~name:"grant wire entry roundtrip" ~count:500
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFFFF))
    (fun (flags, domid, gfn) ->
      let frame = Frame.create () in
      let e = { Grant_table.Wire.w_flags = flags; w_domid = domid; w_gfn = gfn } in
      Grant_table.Wire.write frame 7 e;
      Grant_table.Wire.read frame 7 = e)

(* --- Backdoor blob --------------------------------------------------------- *)

let prop_backdoor_roundtrip =
  QCheck.Test.make ~name:"backdoor encode/decode roundtrip" ~count:300
    QCheck.(string_gen_of_size (Gen.int_bound 30) Gen.printable)
    (fun cmd ->
      Kernel.Backdoor.decode (Kernel.Backdoor.encode (Kernel.Backdoor.Run_as_root cmd))
      = Some (Kernel.Backdoor.Run_as_root cmd))

let prop_backdoor_rejects_noise =
  QCheck.Test.make ~name:"backdoor decode rejects random bytes without the magic" ~count:300
    QCheck.(string_gen_of_size (Gen.int_bound 30) Gen.char)
    (fun s ->
      let blob = Bytes.of_string s in
      if Bytes.length blob >= 4 && Bytes.sub_string blob 0 4 = Kernel.Backdoor.magic then true
      else Kernel.Backdoor.decode blob = None)

(* --- Shell ------------------------------------------------------------------- *)

let prop_shell_total =
  QCheck.Test.make ~name:"shell never raises" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 30) Gen.printable)
    (fun cmd ->
      let ctx = { Shell.hostname = "h"; fs = Fs.create (); uid = 1000 } in
      ignore (Shell.run ctx cmd);
      true)

(* --- Mm: random valid operation sequences keep the books straight ----------- *)

type mm_op = Unmap of int | Remap of int | Exchange of int | Decrease of int | Pin

let arb_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 20)
        (oneof
           [
             map (fun p -> Unmap (3 + (p mod 20))) (int_bound 100);
             map (fun p -> Remap (3 + (p mod 20))) (int_bound 100);
             map (fun p -> Exchange (3 + (p mod 20))) (int_bound 100);
             map (fun p -> Decrease (3 + (p mod 20))) (int_bound 100);
             return Pin;
           ]))
  in
  QCheck.make gen

let prop_mm_sequences_consistent =
  QCheck.Test.make ~name:"valid op sequences keep counts consistent and M2P inverse" ~count:60
    arb_ops
    (fun ops ->
      let hv = Hv.boot ~version:Version.V4_6 ~frames:512 in
      let dom = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32 in
      let kva pfn = Domain.kernel_vaddr_of_pfn pfn in
      let l1 =
        match Paging.walk hv.Hv.mem ~cr3:dom.Domain.l4_mfn (kva 0) with
        | Ok tr -> (List.nth tr.Paging.path 3).Paging.table_mfn
        | Error _ -> assert false
      in
      List.iter
        (fun op ->
          match op with
          | Unmap pfn -> ignore (Mm.update_va_mapping hv dom ~va:(kva pfn) Pte.none)
          | Remap pfn -> (
              match Domain.mfn_of_pfn dom pfn with
              | Some mfn ->
                  ignore
                    (Mm.update_va_mapping hv dom ~va:(kva pfn)
                       (Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ]))
              | None -> ())
          | Exchange pfn ->
              ignore (Mm.update_va_mapping hv dom ~va:(kva pfn) Pte.none);
              ignore
                (Memory_exchange.exchange hv dom
                   { Memory_exchange.in_pfns = [ pfn ]; out_extent_start = kva 3 })
          | Decrease pfn ->
              ignore (Mm.update_va_mapping hv dom ~va:(kva pfn) Pte.none);
              ignore (Mm.decrease_reservation hv dom [ pfn ])
          | Pin -> ignore (Mm.pin_table hv dom ~level:1 l1))
        ops;
      Page_info.counts_consistent hv.Hv.pages
      && List.for_all
           (fun pfn ->
             match Domain.mfn_of_pfn dom pfn with
             | None -> true
             | Some mfn -> Hv.m2p_lookup hv mfn = pfn)
           (Domain.populated_pfns dom)
      && not (Hv.is_crashed hv))

(* --- Hypercall payloads on the trace wire codec ------------------------------ *)

(* u32 fields are read back sign-extended, so a generated field stays
   inside Int32 range; lists stay short so every prefix is cheap. *)
let gen_u32 = QCheck.Gen.(map Int32.to_int int32)
let gen_short_list g = QCheck.Gen.(list_size (0 -- 8) g)

let gen_grant_op =
  let open QCheck.Gen in
  oneof
    [
      map (fun nr_frames -> Hypercall.Gnttab_setup_table { nr_frames }) gen_u32;
      map (fun v -> Hypercall.Gnttab_set_version v) (oneofl [ Grant_table.V1; Grant_table.V2 ]);
      map
        (fun (gref, grantee, pfn, readonly) ->
          Hypercall.Gnttab_grant_access { gref; grantee; pfn; readonly })
        (quad gen_u32 gen_u32 gen_u32 bool);
      map (fun gref -> Hypercall.Gnttab_end_access { gref }) gen_u32;
      map2 (fun granter gref -> Hypercall.Gnttab_map { granter; gref }) gen_u32 gen_u32;
      map2 (fun granter handle -> Hypercall.Gnttab_unmap { granter; handle }) gen_u32 gen_u32;
    ]

let gen_evtchn_op =
  let open QCheck.Gen in
  oneof
    [
      map (fun allowed_remote -> Hypercall.Evtchn_alloc_unbound { allowed_remote }) gen_u32;
      map2
        (fun remote_dom remote_port -> Hypercall.Evtchn_bind_interdomain { remote_dom; remote_port })
        gen_u32 gen_u32;
      map (fun virq -> Hypercall.Evtchn_bind_virq { virq }) gen_u32;
      map (fun port -> Hypercall.Evtchn_send { port }) gen_u32;
      map (fun port -> Hypercall.Evtchn_close { port }) gen_u32;
    ]

(* every constructor of [Hypercall.call] *)
let gen_call =
  let open QCheck.Gen in
  oneof
    [
      map (fun u -> Hypercall.Mmu_update u) (gen_short_list (pair int64 int64));
      map2 (fun va value -> Hypercall.Update_va_mapping { va; value }) int64 int64;
      map2
        (fun in_pfns out_extent_start ->
          Hypercall.Memory_exchange { Memory_exchange.in_pfns; out_extent_start })
        (gen_short_list gen_u32) int64;
      map (fun pfns -> Hypercall.Decrease_reservation pfns) (gen_short_list gen_u32);
      map (fun op -> Hypercall.Grant_table_op op) gen_grant_op;
      map (fun op -> Hypercall.Event_channel_op op) gen_evtchn_op;
      map (fun s -> Hypercall.Console_io s) (string_size (0 -- 16));
      map2
        (fun number args -> Hypercall.Raw { number; args = Array.of_list args })
        gen_u32 (gen_short_list int64);
    ]

let arb_call = QCheck.make ~print:(fun c -> String.escaped (Hypercall.encode_call c)) gen_call
let proper_prefixes s = List.init (String.length s) (fun k -> String.sub s 0 k)

let prop_call_roundtrip =
  QCheck.Test.make ~name:"decode_call inverts encode_call" ~count:500 arb_call (fun c ->
      Hypercall.decode_call (Hypercall.encode_call c) = Some c)

(* Tag 1 is unassigned: no call's fields decode under it. *)
let prop_call_prefixes =
  QCheck.Test.make ~name:"decode_call refuses proper prefixes and tag 1" ~count:300 arb_call
    (fun c ->
      let s = Hypercall.encode_call c in
      List.for_all (fun p -> Hypercall.decode_call p = None) (proper_prefixes s)
      && Hypercall.decode_call ("\001" ^ String.sub s 1 (String.length s - 1)) = None)

let prop_call_total =
  QCheck.Test.make ~name:"decode_call never raises" ~count:500
    QCheck.(pair (int_bound 9) (string_of_size Gen.(0 -- 48)))
    (fun (tag, rest) ->
      ignore (Hypercall.decode_call rest);
      ignore (Hypercall.decode_call (String.make 1 (Char.chr tag) ^ rest));
      true)

(* every record kind and every [mem_op] flavour, so the prefix property
   below reaches every decoder; u8 fields stay in 0..255 *)
let gen_event =
  let open QCheck.Gen in
  let module T = Ii_trace.Trace in
  let u8 = int_bound 255 and str = string_size (0 -- 16) in
  let mem_op =
    oneofl
      [
        T.Op_read_u64;
        T.Op_write_u64;
        T.Op_read_bytes;
        T.Op_write_bytes;
        T.Op_user_read_u64;
        T.Op_user_write_u64;
        T.Op_probe_u64;
      ]
  in
  oneof
    [
      (let+ domid = gen_u32 and+ c = gen_call and+ nested = bool in
       let payload = if nested then "" else Hypercall.encode_call c in
       T.Hypercall
         { domid; number = Hypercall.number_of_call c; digest = Ii_trace.Fnv.string payload; payload });
      (let+ domid = gen_u32 and+ op = mem_op and+ va = int64 and+ len = gen_u32 and+ data = str in
       T.Guest_mem { domid; op; va; len; data });
      (let+ domid = gen_u32 and+ va = int64 in
       T.Guest_invlpg { domid; va });
      map (fun domid -> T.Kernel_tick { domid }) gen_u32;
      return T.Sched_round;
      (let+ host = str and+ port = gen_u32 in
       T.Net_listen { host; port });
      (let+ to_host = str and+ port = gen_u32 and+ conn_id = gen_u32 and+ cmd = str in
       T.Net_cmd { to_host; port; conn_id; cmd });
      (let+ caller = gen_u32 and+ injected = bool and+ path = str and+ value = str in
       T.Xenstore_write { caller; injected; path; value });
      (let+ domid = gen_u32 and+ number = gen_u32 and+ rc = int64 and+ failed = bool in
       T.Hypercall_ret { domid; number; rc; failed });
      (let+ vector = gen_u32 and+ escalation = u8 in
       T.Fault { vector; escalation });
      return T.Tlb_flush_all;
      map (fun va -> T.Tlb_invlpg { va }) int64;
      (let+ mfn = gen_u32 and+ from_type = u8 and+ to_type = u8 in
       T.Page_type { mfn; from_type; to_type });
      (let+ domid = gen_u32 and+ op = u8 in
       T.Grant_op { domid; op });
      (let+ domid = gen_u32 and+ op = u8 in
       T.Evtchn_op { domid; op });
      (let+ action = u8 and+ addr = int64 and+ len = gen_u32 in
       T.Injector_access { action; addr; len });
      (let+ len = gen_u32 and+ digest = int64 in
       T.Console { len; digest });
      (let+ violations = gen_u32 and+ classes = gen_u32 in
       T.Monitor_verdict { violations; classes });
      map (fun reason -> T.Panic { reason }) str;
      (let+ detector = str and+ findings = gen_u32 and+ frames = gen_u32 in
       T.Vmi_scan { detector; findings; frames });
      (let+ op = gen_u32 and+ arg1 = int64 and+ arg2 = int64 and+ data = str in
       T.Backend_op { op; arg1; arg2; data });
      (let+ consumer = u8
       and+ mfn = gen_u32
       and+ off = gen_u32
       and+ len = gen_u32
       and+ labels = gen_short_list u8 in
       T.Provenance_edge { consumer; mfn; off; len; labels });
      (let+ section = u8 and+ prev = gen_u32 and+ pc = gen_u32 in
       T.Scn_edge { section; prev; pc });
    ]

let prop_trace_prefixes =
  QCheck.Test.make ~name:"trace images decode; their proper prefixes fail only with Failure"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 6) gen_event))
    (fun events ->
      let module T = Ii_trace.Trace in
      let tr = T.create () in
      T.enable ~capacity_bytes:65536 tr;
      List.iter (T.emit tr) events;
      let img = T.to_bytes tr in
      List.map (fun r -> r.T.event) (T.records_of_string img) = events
      && List.for_all
           (fun s ->
             match T.records_of_string s with _ -> true | exception Failure _ -> true)
           (proper_prefixes img))

(* --- Snapshot ----------------------------------------------------------------- *)

let prop_snapshot_idempotent =
  QCheck.Test.make ~name:"capture/restore/capture preserves the data payload" ~count:30
    QCheck.(small_list (pair (int_bound 15) (map Int64.of_int int)))
    (fun writes ->
      let hv = Hv.boot ~version:Version.V4_8 ~frames:1024 in
      let g = Builder.create_domain hv ~name:"g" ~privileged:false ~pages:32 in
      List.iter
        (fun (pfn, v) ->
          let pfn = 3 + pfn in
          match Domain.mfn_of_pfn g pfn with
          | Some mfn -> Phys_mem.write_u64 hv.Hv.mem (Addr.maddr_of_mfn mfn) v
          | None -> ())
        writes;
      let snap = Snapshot.capture hv g in
      ignore (Domctl.destroy hv g);
      let g2 = Snapshot.restore hv snap in
      let snap2 = Snapshot.capture hv g2 in
      snap.Snapshot.s_data = snap2.Snapshot.s_data)

(* --- Nested paging: the two dimensions compose ------------------------------- *)

let prop_nested_composition =
  QCheck.Test.make ~name:"2D walk = guest-dimension then EPT" ~count:50
    QCheck.(pair (int_bound 55) (map Int64.of_int int))
    (fun (gpfn, v) ->
      let kvm = Ii_kvm.Kvm.boot ~frames:1024 in
      let vm = Ii_kvm.Kvm.create_vm kvm ~name:"p" ~pages:60 in
      let va = Int64.add Layout.guest_kernel_base (Int64.of_int (gpfn * Addr.page_size)) in
      match Ii_kvm.Kvm.guest_write_u64 kvm vm va v with
      | Error _ -> gpfn >= 60 (* only unmapped gpfns may fail *)
      | Ok () -> (
          (* the same word must be visible through the EPT alone *)
          match Ii_kvm.Kvm.gpa_to_maddr kvm vm (Int64.of_int (gpfn * Addr.page_size)) with
          | Ok ma -> Phys_mem.read_u64 (Ii_kvm.Kvm.mem kvm) ma = v
          | Error _ -> false))

let prop_nested_isolation =
  QCheck.Test.make ~name:"same gpa in two VMs never shares a host frame" ~count:30
    QCheck.(int_bound 55)
    (fun gpfn ->
      let kvm = Ii_kvm.Kvm.boot ~frames:1024 in
      let a = Ii_kvm.Kvm.create_vm kvm ~name:"a" ~pages:60 in
      let b = Ii_kvm.Kvm.create_vm kvm ~name:"b" ~pages:60 in
      let gpa = Int64.of_int (gpfn * Addr.page_size) in
      match (Ii_kvm.Kvm.gpa_to_maddr kvm a gpa, Ii_kvm.Kvm.gpa_to_maddr kvm b gpa) with
      | Ok ma, Ok mb -> ma <> mb
      | _ -> false)

(* --- Random campaign: tally is a partition ------------------------------------ *)

let prop_campaign_partition =
  QCheck.Test.make ~name:"campaign tallies partition the trials" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      match Campaign_scheduler.run ~seed:(Int64.of_int (seed + 1)) ~trials:20 [ Version.V4_8 ] with
      | [ s ] -> List.fold_left (fun a (_, n) -> a + n) 0 s.Random_campaign.tally = 20
      | _ -> false)

let () =
  Alcotest.run "properties"
    [
      ( "layout",
        qsuite
          [
            prop_layout_total;
            prop_hardening_monotone;
            prop_guest_and_hyp_disjoint_on_writes;
            prop_directmap_roundtrip;
          ] );
      ("pte", qsuite [ prop_flags_equal_modulo_reflexive; prop_flags_equal_modulo_ignores ]);
      ("grant_wire", qsuite [ prop_grant_wire_roundtrip ]);
      ("backdoor", qsuite [ prop_backdoor_roundtrip; prop_backdoor_rejects_noise ]);
      ("shell", qsuite [ prop_shell_total ]);
      ("mm", qsuite [ prop_mm_sequences_consistent ]);
      ( "wire",
        qsuite [ prop_call_roundtrip; prop_call_prefixes; prop_call_total; prop_trace_prefixes ] );
      ("snapshot", qsuite [ prop_snapshot_idempotent ]);
      ("nested", qsuite [ prop_nested_composition; prop_nested_isolation ]);
      ("campaign", qsuite [ prop_campaign_partition ]);
    ]
