(* Tests for the campaign throughput engine: the software TLB must be
   invisible under the architectural invalidation discipline (and
   faithfully stale outside it), O(dirty) testbed reset must be
   observably identical to a fresh boot, the cross-trial monitor scan
   cache must never change a snapshot, and sharded campaigns must be
   byte-identical to sequential ones. *)

open Ii_xen
open Ii_guest
open Ii_core
module All = Ii_exploits.All_exploits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

(* Properties with a fixed seed, so a failure reproduces run to run. *)
let qsuite_seeded seed tests =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false ~rand:(Random.State.make [| seed |]))
    tests

let attacker_cr3 tb = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn
let use_case name = List.find (fun uc -> uc.Campaign.uc_name = name) All.use_cases

module Toolkit = Ii_exploits.Toolkit

let xsa212_window = Ii_exploits.Scenario_xen.Xsa212.window

(* Locate the L1 entry backing a kernel vaddr so tests can rewrite raw
   PTE bytes the way an exploit would — beneath every software layer. *)
let l1_slot mem ~cr3 va =
  match List.find_opt (fun s -> s.Paging.level = 1) (Paging.walk_path mem ~cr3 va) with
  | Some s -> (s.Paging.table_mfn, s.Paging.index)
  | None -> Alcotest.fail "no L1 entry on the walk path"

(* --- Software TLB --------------------------------------------------------- *)

(* What a TLB leaf and a fresh walk (or translation) have in common:
   every field but the walk path, which the TLB does not cache. *)
let leaf_view va = function
  | Ok l ->
      Ok
        ( Paging.leaf_maddr l va,
          l.Paging.l_writable,
          l.Paging.l_user,
          l.Paging.l_executable,
          l.Paging.l_superpage )
  | Error e -> Error e

let walk_view = function
  | Ok tr ->
      Ok
        ( tr.Paging.t_maddr,
          tr.Paging.writable,
          tr.Paging.user,
          tr.Paging.executable,
          tr.Paging.superpage )
  | Error e -> Error e

(* The cached walk, unpacked. *)
let walk_cached tlb mem ~cr3 va = Paging.outcome_leaf (Paging.walk_cached tlb mem ~cr3 va)

(* [Paging.translate] through the TLB: the cached leaf under the
   permission check the CPU runs on it. *)
let translate_cached tlb mem ~cr3 ~kind ~user va =
  let fault reason = Error { Paging.fault_vaddr = va; fault_kind = kind; reason } in
  if not (Addr.is_canonical va) then fault Paging.Non_canonical
  else
    let o = Paging.walk_cached tlb mem ~cr3 va in
    match (Paging.outcome_leaf o, Paging.denied ~kind ~user o) with
    | Error reason, _ | Ok _, Some reason -> fault reason
    | (Ok _ as leaf), None -> leaf

(* Under the architectural contract — every PTE rewrite followed by
   invlpg, plus arbitrary interleaved flushes — a cached walk must be
   indistinguishable from a fresh one, for any operation sequence. *)
let prop_tlb_transparent_under_invalidation =
  QCheck.Test.make ~name:"tlb: cached walk = fresh walk under invlpg discipline" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 25) (pair (int_bound 89) (int_bound 2)))
    (fun ops ->
      let tb = Testbed.create Version.V4_8 in
      let mem = tb.Testbed.hv.Hv.mem in
      let cr3 = attacker_cr3 tb in
      let tlb = Paging.Tlb.create () in
      List.for_all
        (fun (pfn, op) ->
          let va = Domain.kernel_vaddr_of_pfn pfn in
          (match op with
          | 0 -> () (* plain lookup below *)
          | 1 ->
              (* rewrite the PTE (toggle RW) and invalidate, as a
                 well-behaved kernel would *)
              let table_mfn, index = l1_slot mem ~cr3 va in
              let frame = Phys_mem.frame mem table_mfn in
              let e = Frame.get_entry frame index in
              let e' = if Pte.test Pte.Rw e then Pte.clear Pte.Rw e else Pte.set Pte.Rw e in
              Frame.set_entry frame index e';
              Paging.Tlb.invlpg tlb ~cr3 va
          | _ -> Paging.Tlb.flush_all tlb);
          leaf_view va (walk_cached tlb mem ~cr3 va) = walk_view (Paging.walk mem ~cr3 va)
          && leaf_view va (translate_cached tlb mem ~cr3 ~kind:Paging.Write ~user:false va)
             = walk_view (Paging.translate mem ~cr3 ~kind:Paging.Write ~user:false va))
        ops)

(* The other half of faithfulness: a raw PTE rewrite *without* invlpg
   must keep serving the stale translation — the window real XSA
   exploits race — until an explicit flush. *)
let test_stale_tlb_without_invlpg () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  let tlb = Paging.Tlb.create () in
  let cached_before = leaf_view va (walk_cached tlb mem ~cr3 va) in
  let table_mfn, index = l1_slot mem ~cr3 va in
  let frame = Phys_mem.frame mem table_mfn in
  let old = Frame.get_entry frame index in
  let mfn6 =
    match Domain.mfn_of_pfn (Kernel.dom tb.Testbed.attacker) 6 with
    | Some m -> m
    | None -> Alcotest.fail "pfn 6 unpopulated"
  in
  Frame.set_entry frame index (Pte.make ~mfn:mfn6 ~flags:(Pte.flags old));
  let fresh = walk_view (Paging.walk mem ~cr3 va) in
  check_bool "fresh walk sees the rewrite" true (fresh <> cached_before);
  check_bool "cached walk is stale" true
    (leaf_view va (walk_cached tlb mem ~cr3 va) = cached_before);
  Paging.Tlb.flush_all tlb;
  check_bool "flush restores agreement" true
    (leaf_view va (walk_cached tlb mem ~cr3 va) = fresh)

(* Testbed.reset recycles frames (generation bump), so even a TLB that
   saw pre-reset state must agree with fresh walks afterwards with no
   explicit flush. *)
let test_tlb_survives_reset () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let cr3 = attacker_cr3 tb in
  let tlb = Paging.Tlb.create () in
  let vas = List.init 8 (fun i -> Domain.kernel_vaddr_of_pfn (3 * i)) in
  List.iter (fun va -> ignore (Paging.walk_cached tlb mem ~cr3 va)) vas;
  Testbed.reset tb;
  let cr3' = attacker_cr3 tb in
  List.iter
    (fun va ->
      check_bool "post-reset agreement" true
        (leaf_view va (walk_cached tlb mem ~cr3:cr3' va)
        = walk_view (Paging.walk mem ~cr3:cr3' va)))
    vas

(* The packed key: cr3 above the virtual page number. Over canonical VAs
   in both halves — mapped kernel pages and arbitrary addresses, so both
   leaves and faults, each beside its twin in the other half — and three
   address spaces sharing one TLB, a cached resolve equals a fresh walk;
   [invlpg] in one address space leaves the same VA cached in another (a
   hit), and re-walks only its own (a miss). *)
let packed_key_tb = lazy (Testbed.create Version.V4_8)

let canonical_va (form, r) =
  match form with
  | 0 -> Int64.add (Domain.kernel_vaddr_of_pfn (abs (Int64.to_int (Int64.rem r 90L)))) 0x18L
  | 1 -> Int64.logand r 0x7FFF_FFFF_FFFFL
  | _ -> Int64.logor r 0xFFFF_8000_0000_0000L

(* the same low 47 bits in the other half *)
let twin va = Addr.canonical (Int64.logxor va 0x8000_0000_0000L)

let prop_tlb_packed_key =
  QCheck.Test.make ~name:"tlb: packed key = fresh walk" ~count:60
    QCheck.(
      pair (int_bound 2) (list_of_size (Gen.int_range 1 8) (pair (int_bound 2) int64)))
    (fun (a, specs) ->
      let tb = Lazy.force packed_key_tb in
      let mem = tb.Testbed.hv.Hv.mem in
      let cr3s =
        List.map (fun k -> (Kernel.dom k).Domain.l4_mfn) Testbed.[ tb.dom0; tb.attacker; tb.victim ]
      in
      let cr3_a = List.nth cr3s a and cr3_b = List.nth cr3s ((a + 1) mod 3) in
      let vas = List.concat_map (fun spec -> let va = canonical_va spec in [ va; twin va ]) specs in
      let tlb = Paging.Tlb.create () in
      let agrees cr3 va =
        leaf_view va (walk_cached tlb mem ~cr3 va) = walk_view (Paging.walk mem ~cr3 va)
        && List.for_all
             (fun (kind, user) ->
               leaf_view va (translate_cached tlb mem ~cr3 ~kind ~user va)
               = walk_view (Paging.translate mem ~cr3 ~kind ~user va))
             [ (Paging.Read, false); (Paging.Write, true); (Paging.Exec, true) ]
      in
      let all_agree () = List.for_all (fun va -> List.for_all (fun cr3 -> agrees cr3 va) cr3s) vas in
      let hits () = (Paging.Tlb.stats tlb).Paging.Tlb.hits in
      let misses () = (Paging.Tlb.stats tlb).Paging.Tlb.misses in
      let invlpg_spares_b va =
        Paging.Tlb.invlpg tlb ~cr3:cr3_a va;
        let h0 = hits () and m0 = misses () in
        let b_cached = Result.is_ok (walk_cached tlb mem ~cr3:cr3_b va) in
        let b_hit = if b_cached then hits () = h0 + 1 else misses () = m0 + 1 in
        let m1 = misses () in
        ignore (Paging.walk_cached tlb mem ~cr3:cr3_a va);
        b_hit && misses () = m1 + 1
      in
      all_agree () && List.for_all invlpg_spares_b vas && all_agree ())

(* A cr3 the key cannot hold is refused, never folded onto another
   address space's entries. *)
let test_tlb_unpackable_cr3 () =
  let tb = Testbed.create Version.V4_8 in
  let mem = tb.Testbed.hv.Hv.mem in
  let va = Domain.kernel_vaddr_of_pfn 5 in
  let tlb = Paging.Tlb.create () in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun cr3 ->
      check_bool (Printf.sprintf "walk_cached cr3 %#x" cr3) true
        (raises (fun () -> Paging.walk_cached tlb mem ~cr3 va));
      check_bool (Printf.sprintf "invlpg cr3 %#x" cr3) true
        (raises (fun () -> Paging.Tlb.invlpg tlb ~cr3 va)))
    [ 1 lsl 26; (1 lsl 26) + attacker_cr3 tb; -1; max_int ];
  check_bool "largest packable cr3 accepted" false
    (raises (fun () -> Paging.Tlb.invlpg tlb ~cr3:((1 lsl 26) - 1) va))

(* The TLB against a reference model: a plain [Hashtbl] of (cr3, page)
   entries stamped with the generation they were filled under. A lookup
   hits only an entry of the current generation; a miss that translates
   fills, flushing the whole table first when it already holds
   [capacity] entries (stale ones included); a fault caches nothing.
   The hand-built machine maps [pages] consecutive pages from VA 0
   through one L3, one L2 and nine L1s, in two address spaces sharing
   those tables; pages past the ninth L1 fault at L2. *)
module Tlb_model = struct
  let pages = 9 * 512

  type t = {
    entries : (int * int, int) Hashtbl.t;
    capacity : int;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
    mutable invlpgs : int;
  }

  let create capacity =
    { entries = Hashtbl.create 64; capacity; hits = 0; misses = 0; flushes = 0; invlpgs = 0 }

  let flush m =
    Hashtbl.reset m.entries;
    m.flushes <- m.flushes + 1

  let lookup m ~gen ~cr3 page =
    match Hashtbl.find_opt m.entries (cr3, page) with
    | Some g when g = gen -> m.hits <- m.hits + 1
    | Some _ | None ->
        m.misses <- m.misses + 1;
        if page < pages then begin
          if Hashtbl.length m.entries >= m.capacity then flush m;
          Hashtbl.replace m.entries (cr3, page) gen
        end

  let invlpg m ~cr3 page =
    Hashtbl.remove m.entries (cr3, page);
    m.invlpgs <- m.invlpgs + 1

  let stats m =
    { Paging.Tlb.hits = m.hits; misses = m.misses; flushes = m.flushes; invlpgs = m.invlpgs }

  (* two L4s over shared L3/L2/L1s, every leaf mapping one data frame;
     most frames stay free, so allocating and freeing one bumps the
     generation *)
  let machine () =
    let mem = Phys_mem.create ~frames:32 in
    let alloc () = Phys_mem.alloc mem Phys_mem.Xen in
    let l4a = alloc () and l4b = alloc () and l3 = alloc () and l2 = alloc () in
    let l1s = List.init 9 (fun _ -> alloc ()) in
    let data = alloc () in
    let link table i target =
      Frame.set_entry (Phys_mem.frame mem table) i
        (Pte.make ~mfn:target ~flags:[ Pte.Present; Pte.Rw; Pte.User ])
    in
    link l4a 0 l3;
    link l4b 0 l3;
    link l3 0 l2;
    List.iteri
      (fun j l1 ->
        link l2 j l1;
        for i = 0 to 511 do
          link l1 i data
        done)
      l1s;
    (mem, l4a, l4b)

  let va page = Int64.of_int (page * Addr.page_size)

  let bump_generation mem = Phys_mem.free mem (Phys_mem.alloc mem Phys_mem.Xen)
end

let tlb_agrees tlb tr model =
  let tm = Ii_trace.Trace.telemetry tr in
  Paging.Tlb.stats tlb = Tlb_model.stats model
  && Paging.Tlb.size tlb = Hashtbl.length model.Tlb_model.entries
  && tm.Ii_trace.Trace.tm_flushes = model.Tlb_model.flushes
  && tm.Ii_trace.Trace.tm_invlpgs = model.Tlb_model.invlpgs

let prop_tlb_reference_model =
  QCheck.Test.make ~name:"tlb: counts and contents = reference model" ~count:60
    QCheck.(
      pair (int_range 1 48)
        (list_of_size (Gen.int_range 1 300) (triple (int_bound 99) bool (int_bound 40))))
    (fun (capacity, ops) ->
      let mem, l4a, l4b = Tlb_model.machine () in
      let tlb = Paging.Tlb.create ~capacity () in
      let tr = Ii_trace.Trace.create () in
      Paging.Tlb.set_tracer tlb tr;
      let model = Tlb_model.create capacity in
      List.for_all
        (fun (op, b, p) ->
          let cr3 = if b then l4a else l4b in
          (* pages 0..35 translate; 36..40 stand in for faults *)
          let page = if p > 35 then Tlb_model.pages + p else p in
          let va = Tlb_model.va page in
          (* invlpg 25%, flush 2%, generation bump 3%, lookup 70%: the
             two address spaces' keys share probe runs, which invlpg
             must leave intact *)
          (if op < 25 then begin
             Paging.Tlb.invlpg tlb ~cr3 va;
             Tlb_model.invlpg model ~cr3 page
           end
           else if op < 27 then begin
             Paging.Tlb.flush_all tlb;
             Tlb_model.flush model
           end
           else if op < 30 then Tlb_model.bump_generation mem
           else begin
             let fresh = walk_view (Paging.walk mem ~cr3 va) in
             let cached = leaf_view va (walk_cached tlb mem ~cr3 va) in
             Tlb_model.lookup model ~gen:(Phys_mem.generation mem) ~cr3 page;
             if cached <> fresh then QCheck.Test.fail_report "cached walk differs"
           end);
          tlb_agrees tlb tr model)
        ops)

(* Filling one page past the default capacity flushes exactly once. *)
let test_tlb_capacity_flush () =
  let mem, l4a, _ = Tlb_model.machine () in
  let tlb = Paging.Tlb.create () in
  let tr = Ii_trace.Trace.create () in
  Paging.Tlb.set_tracer tlb tr;
  let model = Tlb_model.create 4096 in
  let walk page =
    ignore (Paging.walk_cached tlb mem ~cr3:l4a (Tlb_model.va page));
    Tlb_model.lookup model ~gen:(Phys_mem.generation mem) ~cr3:l4a page
  in
  for page = 0 to 4095 do
    walk page
  done;
  check_int "full, no flush yet" 0 (Paging.Tlb.stats tlb).Paging.Tlb.flushes;
  check_int "4096 cached pages" 4096 (Paging.Tlb.size tlb);
  walk 4096;
  check_int "one page past capacity: one flush" 1 (Paging.Tlb.stats tlb).Paging.Tlb.flushes;
  check_int "one flush in the telemetry" 1 (Ii_trace.Trace.telemetry tr).Ii_trace.Trace.tm_flushes;
  check_int "only the new page cached" 1 (Paging.Tlb.size tlb);
  walk 4096;
  walk 0;
  check_bool "hits, misses and flushes = model" true (tlb_agrees tlb tr model);
  check_bool "the new page hits, an evicted one misses" true
    (Paging.Tlb.stats tlb = { Paging.Tlb.hits = 1; misses = 4098; flushes = 1; invlpgs = 0 })

(* --- Reset = create ------------------------------------------------------- *)

(* The contract on Testbed.reset: a reset testbed is observably
   equivalent to a freshly created one. Campaign.run with a reused
   testbed must therefore return the exact row a full boot returns, for
   every use case and both modes. *)
let test_reset_equals_create_campaign () =
  let tb = Testbed.create Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let reused = Campaign.run ~tb uc mode Version.V4_6 in
          check_bool (uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode) true
            (fresh = reused))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

let test_reset_equals_create_snapshot () =
  let pristine = Monitor.snapshot (Testbed.create Version.V4_8) in
  let tb = Testbed.create Version.V4_8 in
  let hv = tb.Testbed.hv in
  Injector.install hv;
  ignore
    (Injector.write_u64 tb.Testbed.attacker ~addr:0x9000L
       ~action:Injector.Arbitrary_write_physical 0xBEEFL);
  Testbed.reset tb;
  check_bool "snapshot of reset testbed = snapshot of fresh testbed" true
    (Monitor.snapshot tb = pristine)

(* --- Monitor scan cache --------------------------------------------------- *)

(* The cache's one guarantee: passing it never changes a snapshot. Hit
   it with randomized physical-memory corruption and resets — exactly
   the traffic a randomized campaign generates. *)
let prop_scan_cache_transparent =
  QCheck.Test.make ~name:"monitor: snapshot with cache = snapshot without" ~count:10
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_bound 0x1F_FFF8) small_int))
    (fun writes ->
      let tb = Testbed.create Version.V4_8 in
      let cache = Monitor.create_scan_cache () in
      List.for_all
        (fun (off, v) ->
          (* align to the u64 containment contract; a straddling write
             raises Bad_maddr, which is Phys_mem's business, not the
             cache's *)
          let off = off land lnot 7 in
          Phys_mem.write_u64 tb.Testbed.hv.Hv.mem (Int64.of_int off) (Int64.of_int v);
          let agree = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
          if v mod 3 = 0 then Testbed.reset tb;
          agree && Monitor.snapshot ~cache tb = Monitor.snapshot tb)
        writes)

(* --- Testbed-owned scan caches ---------------------------------------------

   Every testbed carries its own baseline scan cache, which the substrate
   snapshot passes to the monitor. The uncached [Monitor.snapshot] (and,
   on KVM, the recomputed VMCS hashes and EPT exposures) are the oracle.
   The operations reach every input a cached scan depends on: table
   bytes (PT entries, EPT entries, VMCS), the M2P, page types (which
   dirty no frame), frame owners, allocations, and resets. *)

let nth_mod l i = List.nth l (abs i mod List.length l)

let xen_scan_tb () =
  Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default Version.V4_6

let populated_mfn dom i = Option.get (Domain.mfn_of_pfn dom (nth_mod (Domain.populated_pfns dom) i))

let xen_scan_op (tb : Testbed.t) (kind, (a, b)) =
  let hv = tb.Testbed.hv in
  let mem = hv.Hv.mem in
  let dom = Kernel.dom (nth_mod (Testbed.kernels tb) a) in
  match kind with
  | 0 ->
      (* a writable mapping of one of the domain's own table frames *)
      let table = nth_mod dom.Domain.pt_pages b in
      let target = nth_mod dom.Domain.pt_pages (b lsr 9) in
      Phys_mem.write_u64 mem
        (Int64.add (Addr.maddr_of_mfn table) (Int64.of_int (8 * ((b lsr 3) land 511))))
        (Pte.make ~mfn:target ~flags:[ Pte.Present; Pte.Rw; Pte.User ])
  | 1 ->
      let mfn = populated_mfn dom b in
      let m2p_mfn = Hv.m2p_frame_for hv mfn and off = Hv.m2p_offset mfn in
      Phys_mem.write_u64 mem (Int64.add (Addr.maddr_of_mfn m2p_mfn) (Int64.of_int off))
        (Int64.of_int (b land 0xfff))
  | 2 ->
      (* an out-of-band type change (the type confusion a hypervisor bug
         causes): typing a data frame the guest maps writable, or
         untyping a table frame, moves the exposure while every table
         frame stays clean *)
      let mfn = if b land 1 = 0 then populated_mfn dom b else nth_mod dom.Domain.pt_pages b in
      if b land 1 = 0 then Page_info.set_type hv.Hv.pages mfn Page_info.PGT_l1 ~count:1
      else Page_info.set_type hv.Hv.pages mfn Page_info.PGT_none ~count:0
  | 3 -> (
      try ignore (if b land 1 = 0 then Hv.alloc_xen_page hv else Hv.alloc_domain_page hv dom)
      with Failure _ -> ())
  | 4 -> Testbed.reset tb
  | 5 ->
      (* a root switch that dirties no frame: the domain now walks
         another domain's tables *)
      dom.Domain.l4_mfn <- (Kernel.dom (nth_mod (Testbed.kernels tb) b)).Domain.l4_mfn
  | 6 ->
      (* a refcount-only change on a mapped frame: the frame's Page_info
         is touched while its type stays *)
      let mfn = populated_mfn dom b in
      if b land 1 = 0 then Page_info.get_page hv.Hv.pages mfn
      else if Page_info.ref_count hv.Hv.pages mfn > 0 then
        Page_info.put_page hv.Hv.pages mfn
  | 7 ->
      (* a P2M change, the balloon driver's way: unmap a data page, then
         hand it back through Decrease_reservation *)
      let k = nth_mod (Testbed.kernels tb) a in
      let pfn = 3 + (b mod max 1 (Domain.max_pfn dom - 3)) in
      ignore
        (Kernel.hypercall k
           (Hypercall.Update_va_mapping { va = Domain.kernel_vaddr_of_pfn pfn; value = Pte.none }));
      ignore (Kernel.hypercall k (Hypercall.Decrease_reservation [ pfn ]))
  | _ -> Testbed.tick_all tb

let scan_ops =
  QCheck.(
    list_of_size (Gen.int_range 1 20) (pair (int_bound 8) (pair small_nat (int_bound (1 lsl 30)))))

let prop_xen_testbed_cache =
  QCheck.Test.make ~name:"xen: testbed cache = uncached oracle" ~count:25 scan_ops (fun ops ->
      let tb = xen_scan_tb () in
      let agree () = Substrate_xen.snapshot tb = Monitor.snapshot tb in
      agree ()
      && List.for_all
           (fun op ->
             xen_scan_op tb op;
             agree ())
           ops)

module BK = Ii_backends.Backend_kvm

let kvm_recomputed (t : BK.t) =
  let vms = Ii_kvm.Kvm.vms t.BK.kvm in
  ( List.map (fun vm -> (vm.Ii_kvm.Kvm.vm_id, Ii_kvm.Kvm.vmcs_hash t.BK.kvm vm)) vms,
    List.map (fun vm -> (vm.Ii_kvm.Kvm.vm_id, Ii_kvm.Kvm.ept_exposure t.BK.kvm vm)) vms )

let kvm_cached (t : BK.t) =
  let s = BK.snapshot t in
  (s.BK.s_vmcs, s.BK.s_ept_exposure)

let kvm_scan_op (t : BK.t) (kind, (a, b)) =
  let module K = Ii_kvm.Kvm in
  let mem = K.mem t.BK.kvm in
  let vms = K.vms t.BK.kvm in
  let vm = nth_mod vms a in
  let g = K.ept_graph t.BK.kvm vm in
  match kind with
  | 0 ->
      Phys_mem.write_u64 mem
        (Int64.add (Addr.maddr_of_mfn vm.K.vmcs_mfn) (Int64.of_int (8 * (b land 3))))
        (Int64.of_int b)
  | 1 ->
      (* remap a leaf in the last-level table onto a host frame or a
         neighbour's frame *)
      let l1 = List.nth g.K.eg_tables (List.length g.K.eg_tables - 1) in
      let target =
        match b land 3 with
        | 0 -> (nth_mod vms (b lsr 2)).K.vmcs_mfn
        | 1 -> (nth_mod vms (b lsr 2)).K.ept_root
        | _ -> (b lsr 2) mod Phys_mem.total_frames mem
      in
      Phys_mem.write_u64 mem
        (Int64.add (Addr.maddr_of_mfn l1) (Int64.of_int (8 * ((b lsr 4) land 63))))
        (Pte.make ~mfn:target ~flags:[ Pte.Present; Pte.Rw; Pte.User ])
  | 2 ->
      let _, leaf = nth_mod g.K.eg_leaves b in
      Phys_mem.set_owner mem leaf
        (match b land 3 with
        | 0 -> Phys_mem.Xen
        | 1 -> Phys_mem.Free
        | _ -> Phys_mem.Dom (nth_mod vms (b lsr 2)).K.vm_id)
  | 3 | 4 | 5 -> BK.reset t
  | _ -> BK.tick_all t

let prop_kvm_testbed_cache =
  QCheck.Test.make ~name:"kvm: testbed cache = recomputed" ~count:25 scan_ops (fun ops ->
      let t = BK.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default BK.Stock in
      let agree () = kvm_cached t = kvm_recomputed t in
      agree ()
      && List.for_all
           (fun op ->
             kvm_scan_op t op;
             agree ())
           ops)

(* Every corpus cell on both backends, every configuration, both modes,
   on long-lived pooled testbeds with 4 domains under the default load
   (the benchmark's [corpus] shape): after each cell, the cached
   snapshot equals the uncached oracle. The cells retype, remap,
   balloon and exchange pages, so every dependency the cache records
   is exercised by real hypercall paths. *)
let test_corpus_cache_oracle () =
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  List.iter
    (fun v ->
      let tb = Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default v in
      List.iter
        (fun uc ->
          List.iter
            (fun mode ->
              ignore (Campaign.run ~tb uc mode v);
              check_bool
                (Printf.sprintf "xen %s/%s/%s" uc.Campaign.uc_name (Version.to_string v)
                   (Campaign.mode_to_string mode))
                true
                (Substrate_xen.snapshot tb = Monitor.snapshot tb))
            modes)
        All.use_cases)
    Version.all;
  let module KC = Ii_backends.Backends.Kvm_campaign in
  List.iter
    (fun c ->
      let tb = BK.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default c in
      List.iter
        (fun uc ->
          List.iter
            (fun mode ->
              ignore (KC.run ~tb uc mode c);
              check_bool
                (Printf.sprintf "kvm %s/%s/%s" uc.KC.uc_name (BK.config_to_string c)
                   (Campaign.mode_to_string mode))
                true
                (kvm_cached tb = kvm_recomputed tb))
            modes)
        All.kvm_use_cases)
    BK.configs

(* Siblings forked from one template each own a cache, and dirtying one
   never shows up in the other's cached snapshots. *)
let test_fork_cache_isolation () =
  let a = xen_scan_tb () and b = xen_scan_tb () in
  check_bool "xen forks own distinct caches" true (a.Testbed.scan_cache != b.Testbed.scan_cache);
  let pristine = Substrate_xen.snapshot b in
  ignore (Substrate_xen.snapshot a);
  List.iter (xen_scan_op a) [ (0, (1, 77)); (1, (2, 5)); (2, (1, 40)); (0, (2, 1 lsl 12)) ];
  check_bool "xen: the dirtied fork diverged" true (Substrate_xen.snapshot a <> pristine);
  check_bool "xen: the dirtied fork agrees with the oracle" true
    (Substrate_xen.snapshot a = Monitor.snapshot a);
  check_bool "xen: the sibling is untouched" true
    (Substrate_xen.snapshot b = pristine && Monitor.snapshot b = pristine);
  let ka = BK.create_pooled ~domains:4 BK.Stock and kb = BK.create_pooled ~domains:4 BK.Stock in
  check_bool "kvm forks own distinct caches" true (ka.BK.scans != kb.BK.scans);
  let kpristine = kvm_cached kb in
  ignore (kvm_cached ka);
  List.iter (kvm_scan_op ka) [ (0, (0, 9)); (1, (1, 0)); (2, (2, 4)) ];
  check_bool "kvm: the dirtied fork diverged" true (kvm_cached ka <> kpristine);
  check_bool "kvm: the dirtied fork agrees with the recomputation" true
    (kvm_cached ka = kvm_recomputed ka);
  check_bool "kvm: the sibling is untouched" true
    (kvm_cached kb = kpristine && kvm_recomputed kb = kpristine)

(* --- Per-table scan nodes ------------------------------------------------

   The memo holds one node per page table, valid while the table's own
   bytes are clean and the types its leaves consulted are untouched,
   and stored only when every table above it is clean and every table
   below it was stored. These cases put the tables into the shapes
   where a node could go stale and compare against the uncached walk
   at each step. The attacker's tables come in [Builder]'s order: L4,
   kernel L3, kernel L2, user L3, user L2, user L1, the kernel L1, then
   Xen's three. *)

let kernel_l2 dom = List.nth dom.Domain.pt_pages 2
let kernel_l1 dom = List.nth dom.Domain.pt_pages 6

let set_pte (tb : Testbed.t) table index pte =
  Phys_mem.write_u64 tb.Testbed.hv.Hv.mem
    (Int64.add (Addr.maddr_of_mfn table) (Int64.of_int (8 * index)))
    pte

let rw_user mfn = Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ]

let attacker_exposure (tb : Testbed.t) =
  List.assoc (Kernel.hostname tb.Testbed.attacker) (Monitor.snapshot tb).Monitor.pt_exposure

let cache_agrees what (tb : Testbed.t) cache =
  check_bool what true (Monitor.snapshot ~cache tb = Monitor.snapshot tb)

(* Give frame [mfn] a page-table type without writing any frame. *)
let retype (tb : Testbed.t) mfn =
  Page_info.set_type tb.Testbed.hv.Hv.pages mfn Page_info.PGT_l1 ~count:1

(* A fresh cache's first snapshot sees a forged L1 entry: nothing probed
   from the dirty table may be stored, or the reset would bring back a
   clean-looking node with the forged count. *)
let test_nodes_first_snapshot_forged () =
  let tb = Testbed.create_pooled Version.V4_6 in
  let dom = Kernel.dom tb.Testbed.attacker in
  let cache = Monitor.create_scan_cache () in
  set_pte tb (kernel_l1 dom) 200 (rw_user dom.Domain.l4_mfn);
  check_int "the forged entry is a counted exposure" 1 (attacker_exposure tb);
  cache_agrees "first cached snapshot, forged" tb cache;
  Testbed.reset tb;
  check_int "the reset removed it" 0 (attacker_exposure tb);
  cache_agrees "after the reset" tb cache;
  cache_agrees "after the reset, again" tb cache

(* A new baseline whose kernel L2 holds three more L1s, each mapping
   the L4 writable once; dirtying one leaves its siblings' nodes valid. *)
let test_nodes_dirty_sibling () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv and dom = Kernel.dom tb.Testbed.attacker in
  let l1s =
    List.init 3 (fun i ->
        let l1 = Hv.alloc_domain_page hv dom in
        set_pte tb l1 (10 + i) (rw_user dom.Domain.l4_mfn);
        set_pte tb (kernel_l2 dom) (1 + i) (rw_user l1);
        l1)
  in
  let ck = Hv.checkpoint hv in
  let cache = Monitor.create_scan_cache () in
  check_int "three exposures at the baseline" 3 (attacker_exposure tb);
  cache_agrees "baseline" tb cache;
  set_pte tb (List.nth l1s 1) 11 Pte.none;
  check_int "one L1 lost its exposure" 2 (attacker_exposure tb);
  cache_agrees "one dirty L1, two clean siblings" tb cache;
  set_pte tb (List.nth l1s 2) 300 (rw_user dom.Domain.l4_mfn);
  cache_agrees "two dirty L1s, one clean" tb cache;
  Hv.restore hv ck;
  cache_agrees "restored" tb cache

(* A writable PSE entry in the kernel L2 counts every page-table frame
   in its 2 MiB; its node depends on all 512 frames' types. *)
let test_nodes_pse () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv and dom = Kernel.dom tb.Testbed.attacker in
  let base = dom.Domain.l4_mfn land lnot 511 in
  set_pte tb (kernel_l2 dom) 7
    (Pte.make ~mfn:base ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Pse ]);
  let ck = Hv.checkpoint hv in
  let cache = Monitor.create_scan_cache () in
  let pse = attacker_exposure tb in
  check_bool "the superpage exposes tables" true (pse > 0);
  cache_agrees "PSE baseline" tb cache;
  let untyped = ref base in
  while Page_info.type_count hv.Hv.pages !untyped > 0 do incr untyped done;
  retype tb !untyped;
  check_int "a frame under the superpage retyped" (pse + 1) (attacker_exposure tb);
  cache_agrees "retyped under the superpage" tb cache;
  Hv.restore hv ck;
  cache_agrees "restored" tb cache;
  set_pte tb (kernel_l2 dom) 7 Pte.none;
  cache_agrees "the superpage removed" tb cache;
  Hv.restore hv ck;
  cache_agrees "restored again" tb cache

(* The kernel L1 reached at a second VA prefix through the kernel L2:
   two nodes for one frame, both moved by one write or one retype. *)
let test_nodes_two_prefixes () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv and dom = Kernel.dom tb.Testbed.attacker in
  set_pte tb (kernel_l2 dom) 1 (rw_user (kernel_l1 dom));
  let ck = Hv.checkpoint hv in
  let cache = Monitor.create_scan_cache () in
  check_int "no exposure at the baseline" 0 (attacker_exposure tb);
  cache_agrees "baseline" tb cache;
  set_pte tb (kernel_l1 dom) 200 (rw_user dom.Domain.l4_mfn);
  check_int "one forged entry, seen at both prefixes" 2 (attacker_exposure tb);
  cache_agrees "the shared L1 dirty" tb cache;
  Hv.restore hv ck;
  cache_agrees "restored" tb cache;
  retype tb (Option.get (Domain.mfn_of_pfn dom 20));
  check_int "one retyped data page, seen at both prefixes" 2 (attacker_exposure tb);
  cache_agrees "a leaf target retyped" tb cache;
  Hv.restore hv ck;
  cache_agrees "restored again" tb cache

(* Retyping the frames writable leaves map dirties no frame: only the
   nodes' type dependencies can tell. *)
let test_nodes_types_only () =
  let tb = Testbed.create_pooled Version.V4_6 in
  let dom = Kernel.dom tb.Testbed.attacker in
  let cache = Monitor.create_scan_cache () in
  cache_agrees "baseline" tb cache;
  let mem = tb.Testbed.hv.Hv.mem in
  let dirty = Phys_mem.dirty_count mem in
  retype tb (Option.get (Domain.mfn_of_pfn dom 20));
  retype tb (Option.get (Domain.mfn_of_pfn dom 21));
  check_int "no frame dirtied" dirty (Phys_mem.dirty_count mem);
  check_int "two retyped data pages exposed" 2 (attacker_exposure tb);
  cache_agrees "leaf targets retyped" tb cache;
  Testbed.reset tb;
  cache_agrees "after the reset" tb cache

(* The memo holds the pristine tree: a randomized campaign stores no
   node the first clean snapshot did not. *)
let test_nodes_bounded () =
  let w = Random_campaign.make_worker ~pooled:true Version.V4_6 in
  ignore (Substrate_xen.snapshot w);
  let nodes = Scan_memo.size w.Testbed.scan_cache in
  for i = 0 to 999 do
    ignore (Random_campaign.run_one w ~seed:5L ~targets:Random_campaign.all_targets i)
  done;
  check_int "nodes after 1,000 trials" nodes (Scan_memo.size w.Testbed.scan_cache);
  check_bool "and the cache still agrees" true (Substrate_xen.snapshot w = Monitor.snapshot w)

(* The memo itself: a dirty read dependency or a touched type
   dependency forces a rescan, a change to any other frame does not, a
   rescan under a broken dependency is not stored, a new baseline epoch
   drops what the old one cached, and an attached provenance shadow
   disables the memo outright. *)
let test_scan_memo_anchor () =
  let mem = Phys_mem.create ~frames:4 in
  Phys_mem.capture_baseline mem;
  let memo = Scan_memo.create () in
  let scans = ref 0 in
  let scan deps =
    incr scans;
    Scan_memo.note_read deps 1;
    Scan_memo.note_type deps 2;
    Phys_mem.read_u64 mem (Addr.maddr_of_mfn 1)
  in
  let get ?touched () = Scan_memo.get memo mem ?touched ~key:0 ~root:1 scan in
  let scanned what n = check_int what n !scans in
  check_bool "usable at its baseline" true (Scan_memo.usable memo mem);
  check_bool "first scan" true (get () = 0L);
  scanned "first scan ran" 1;
  ignore (get ());
  scanned "clean: a hit" 1;
  Phys_mem.write_u64 mem (Addr.maddr_of_mfn 3) 9L;
  ignore (get ~touched:(fun m -> m = 3) ());
  scanned "another frame dirty and touched: a hit" 1;
  ignore (get ~touched:(fun m -> m = 2) ());
  scanned "a touched type dependency forces a rescan" 2;
  ignore (get ());
  scanned "that rescan was not stored" 2;
  Phys_mem.write_u64 mem (Addr.maddr_of_mfn 1) 7L;
  check_bool "a dirty read dependency forces a rescan" true (get () = 7L);
  scanned "rescanned" 3;
  Phys_mem.capture_baseline mem;
  check_bool "usable at the new baseline" true (Scan_memo.usable memo mem);
  check_bool "the new baseline's value" true (get () = 7L);
  scanned "the new epoch dropped the old entry" 4;
  ignore (Phys_mem.reset_to_baseline mem : int);
  check_bool "usable after a reset" true (Scan_memo.usable memo mem);
  ignore (get ());
  scanned "a hit after the reset" 4;
  Phys_mem.set_provenance mem (Some (Ii_trace.Provenance.create ()));
  check_bool "provenance bypasses the memo" false (Scan_memo.usable memo mem)

(* --- Warm pools and COW forks --------------------------------------------- *)

(* The contract on Testbed.create_pooled: a COW fork of the frozen
   template is observably equivalent to a fresh boot. Every use case,
   both modes, must return the exact row a full build returns. Each
   cell runs twice in a row on the fork, so the second run reuses the
   before-snapshot the first took (the trial executor's memo), and must
   still return that row. *)
let test_pooled_equals_fresh_campaign () =
  let tb = Testbed.create_pooled Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run uc mode Version.V4_6 in
          let label = uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode in
          check_bool (label ^ " pooled") true (fresh = Campaign.run ~tb uc mode Version.V4_6);
          check_bool (label ^ " pooled again (memo hit)") true
            (fresh = Campaign.run ~tb uc mode Version.V4_6))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

(* The same contract with extra domains and background load live: the
   pool keys on the domain count, the template stays load-free, and the
   fork installs its own per-domain streams — so a loaded four-domain
   fork must return the exact row a loaded four-domain fresh boot
   returns, per-domain violation rows included. *)
let test_pooled_equals_fresh_multidomain () =
  let load = Ii_trace.Load_mix.default in
  let tb = Testbed.create_pooled ~domains:4 ~load Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = Campaign.run ~domains:4 ~load uc mode Version.V4_6 in
          let label = uc.Campaign.uc_name ^ "/" ^ Campaign.mode_to_string mode in
          check_bool (label ^ " multi-domain pooled") true
            (fresh = Campaign.run ~tb uc mode Version.V4_6);
          check_bool (label ^ " multi-domain pooled again (memo hit)") true
            (fresh = Campaign.run ~tb uc mode Version.V4_6))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

let test_pooled_equals_fresh_kvm () =
  let module BK = Ii_backends.Backend_kvm in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let tb = BK.create_pooled BK.Stock in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let fresh = KC.run uc mode BK.Stock in
          let label = uc.KC.uc_name ^ "/" ^ Campaign.mode_to_string mode in
          check_bool (label ^ " kvm pooled") true (fresh = KC.run ~tb uc mode BK.Stock);
          check_bool (label ^ " kvm pooled again (memo hit)") true
            (fresh = KC.run ~tb uc mode BK.Stock))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.kvm_use_cases

(* Out-of-band observers on a forked testbed: interleaved monitor scans
   (through the scan cache, whose anchoring rides the baseline epoch the
   fork inherits) must not change the row, and the row must still equal
   the fresh-boot one. *)
let test_pooled_interleaved_scans () =
  let uc = Option.get (All.find "XSA-148-priv") in
  let row_with tb =
    let cache = Monitor.create_scan_cache () in
    Campaign.run ~tb
      ~observer:(fun tb -> ignore (Monitor.snapshot ~cache tb))
      uc Campaign.Injection Version.V4_6
  in
  let fresh = row_with (Testbed.create Version.V4_6) in
  let pooled = row_with (Testbed.create_pooled Version.V4_6) in
  check_bool "interleaved scans: pooled = fresh" true (fresh = pooled)

(* The provenance shadow attaches to a fork exactly as to a fresh boot:
   same causal graph, same taint. *)
let test_pooled_provenance () =
  let uc = Option.get (All.find "XSA-182-test") in
  let stats tb =
    Phys_mem.enable_provenance (Substrate_xen.mem tb) ~tr:(Substrate_xen.trace tb);
    ignore (Campaign.run ~tb uc Campaign.Injection Version.V4_6);
    let p = Option.get (Phys_mem.provenance (Substrate_xen.mem tb)) in
    (Ii_trace.Provenance.edge_count p, Ii_trace.Provenance.tainted_bytes p)
  in
  let fresh = stats (Testbed.create Version.V4_6) in
  let pooled = stats (Testbed.create_pooled Version.V4_6) in
  check_bool "provenance on fork = on fresh boot" true (fresh = pooled)

(* Scan-cache anchoring survives the fork: the cache anchors on the
   baseline epoch, which the fork copies, and checks its entries
   against dirty frames and touched page infos, which the fork starts
   without, so passing a cache never changes a snapshot — across
   corruption and resets. *)
let test_fork_scan_cache_anchoring () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let cache = Monitor.create_scan_cache () in
  let agree () = Monitor.snapshot ~cache tb = Monitor.snapshot tb in
  check_bool "initial agreement" true (agree ());
  Phys_mem.write_u64 tb.Testbed.hv.Hv.mem 0x9000L 0xBEEFL;
  check_bool "after corruption" true (agree ());
  Testbed.reset tb;
  check_bool "after reset" true (agree ())

let test_fork_template_isolation () =
  let t = Phys_mem.create ~frames:8 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  let f = Phys_mem.fork t in
  check_int "all frames shared at birth" 8 (Phys_mem.shared_frames f);
  Phys_mem.write_u64 f 0x1008L 0xDEADL;
  check_int "first write unshares its frame" 7 (Phys_mem.shared_frames f);
  check_bool "fork sees its write" true (Phys_mem.read_u64 f 0x1008L = 0xDEADL);
  check_bool "template untouched" true (Phys_mem.read_u64 t 0x1008L = 0L);
  ignore (Phys_mem.reset_to_baseline f : int);
  check_bool "fork resets to template state" true (Phys_mem.read_u64 f 0x1008L = 0L);
  (* a sibling fork never sees the other's divergence *)
  let g = Phys_mem.fork t in
  check_bool "sibling fork pristine" true (Phys_mem.read_u64 g 0x1008L = 0L)

let test_frozen_template_immutable () =
  let t = Phys_mem.create ~frames:4 in
  Phys_mem.capture_baseline t;
  Phys_mem.freeze t;
  check_bool "frozen template rejects writes" true
    (match Phys_mem.write_u64 t 0L 1L with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_bool "fork requires a frozen template" true
    (match Phys_mem.fork (Phys_mem.create ~frames:4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Fresh memory is copy-on-write over one all-zero frame: every frame
   starts shared, and a write detaches only its own frame. *)
let test_fresh_memory_shared () =
  let t = Phys_mem.create ~frames:8 in
  check_int "all frames shared at creation" 8 (Phys_mem.shared_frames t);
  check_bool "one zero frame behind them" true (Phys_mem.frame_ro t 2 == Phys_mem.frame_ro t 5);
  Phys_mem.write_u64 t 0x1008L 0xDEADL;
  check_int "first write unshares its frame" 7 (Phys_mem.shared_frames t);
  check_bool "the write lands" true (Phys_mem.read_u64 t 0x1008L = 0xDEADL);
  check_bool "a shared frame still reads zero" true (Phys_mem.read_u64 t 0x2008L = 0L);
  ignore (Phys_mem.alloc t Phys_mem.Xen);
  check_int "allocating a frame does not write it" 7 (Phys_mem.shared_frames t);
  (* a boot writes 41 of its 2,048 frames *)
  let tb = Testbed.create Version.V4_8 in
  check_bool "most frames stay shared through a boot" true
    (Phys_mem.shared_frames tb.Testbed.hv.Hv.mem > 1024)

(* The zero frame every fresh memory shares is never written through:
   after a corpus round on both backends, on booted testbeds and on
   pooled forks, and a randomized batch, a new memory's frame still
   reads all zero. *)
let test_zero_frame_intact () =
  let module BK = Ii_backends.Backend_kvm in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  (* [boot config] boots one testbed and returns its cell runner *)
  let round boot ucs configs =
    List.iter
      (fun config ->
        let run = boot config in
        List.iter (fun uc -> List.iter (fun mode -> run uc mode) modes) ucs)
      configs
  in
  round
    (fun v -> let tb = Testbed.create v in fun uc mode -> ignore (Campaign.run ~tb uc mode v))
    All.use_cases Version.all;
  round
    (fun c -> let tb = BK.create c in fun uc mode -> ignore (KC.run ~tb uc mode c))
    All.kvm_use_cases BK.configs;
  ignore (Campaign.run_matrix All.use_cases ~versions:Version.all ~modes);
  ignore (KC.run_matrix All.kvm_use_cases ~versions:BK.configs ~modes);
  ignore
    (Campaign_scheduler.run ~seed:1L ~targets:Random_campaign.all_targets ~workers:1 ~trials:300
       Version.all);
  let zero = Phys_mem.frame_ro (Phys_mem.create ~frames:1) 0 in
  check_bool "the shared zero frame is all zero" true (Frame.equal zero (Frame.create ()))

(* Every reset hands each frame a trial wrote back to the template: after
   every corpus cell on a pooled testbed of each backend (4 domains
   under load), the reset memory shares all its frames. *)
let test_reset_reshares () =
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let modes = [ Campaign.Real_exploit; Campaign.Injection ] in
  let all_shared what mem =
    check_int (what ^ ": every frame shared after reset") (Phys_mem.total_frames mem)
      (Phys_mem.shared_frames mem)
  in
  let load = Ii_trace.Load_mix.default in
  let tb = Testbed.create_pooled ~domains:4 ~load Version.V4_6 in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          ignore (Campaign.run ~tb uc mode Version.V4_6);
          Testbed.reset tb;
          all_shared uc.Campaign.uc_name tb.Testbed.hv.Hv.mem)
        modes)
    All.use_cases;
  let tb = BK.create_pooled ~domains:4 ~load BK.Stock in
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          ignore (KC.run ~tb uc mode BK.Stock);
          BK.reset tb;
          all_shared uc.KC.uc_name (BK.mem tb))
        modes)
    All.kvm_use_cases

(* --- Phys_mem reset as a property -------------------------------------------

   A memory resets to a frozen template: the one it was forked from, or
   the snapshot its own [capture_baseline] froze. Either way it must
   come back to exactly the baseline — every frame's bytes and owner,
   the free count, and the free bitmap (probed with an [alloc]) — after
   any mix of writes, allocations, frees, owner changes and bulk
   exhaustion; again on a second round that starts from the reset
   state, where the written frames are private rather than shared; and
   after a re-capture, to the new baseline, while a sibling fork of the
   first template still resets to that template. *)

let pm_frames = 48

(* A baseline with every kind of frame: owned with content, owned but
   zero, and free holes below owned frames. *)
let pm_base () =
  let m = Phys_mem.create ~frames:pm_frames in
  for i = 0 to 23 do
    ignore (Phys_mem.alloc m (if i mod 3 = 0 then Phys_mem.Xen else Phys_mem.Dom (i mod 3)))
  done;
  for i = 0 to 23 do
    if i mod 2 = 0 then
      Phys_mem.write_u64 m (Int64.of_int ((i * Addr.page_size) + (8 * i))) (Int64.of_int (i + 1))
  done;
  Phys_mem.free m 5;
  Phys_mem.free m 6;
  m

type pm_state = { hashes : int64 list; owners : Phys_mem.owner list; free : int }

let pm_state m =
  let mfns = List.init pm_frames Fun.id in
  {
    hashes = List.map (Phys_mem.frame_hash m) mfns;
    owners = List.map (Phys_mem.owner m) mfns;
    free = Phys_mem.free_frames m;
  }

let pm_apply m (kind, (a, v)) =
  let mfn = a mod pm_frames in
  match kind with
  | 0 ->
      let off = Int64.to_int (Int64.logand v 511L) * 8 in
      Phys_mem.write_u64 m (Int64.of_int ((mfn * Addr.page_size) + off)) v
  | 1 -> ( try ignore (Phys_mem.alloc m (Phys_mem.Dom 7)) with Failure _ -> ())
  | 2 -> Phys_mem.free m mfn
  | 3 ->
      Phys_mem.set_owner m mfn
        (match Int64.to_int (Int64.logand v 3L) with
        | 0 -> Phys_mem.Free
        | 1 -> Phys_mem.Xen
        | n -> Phys_mem.Dom n)
  | _ ->
      (* exhaust-style: grab frames until at most [a mod 8] are left *)
      while Phys_mem.free_frames m > a mod 8 do
        ignore (Phys_mem.alloc m Phys_mem.Xen)
      done

let pm_lowest_free s =
  let rec go i = function
    | [] -> None
    | Phys_mem.Free :: _ -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 s.owners

(* One round: mutate, reset, compare; then probe the free bitmap with an
   allocation and reset once more. *)
let pm_round m expected ops =
  let reset_matches () =
    ignore (Phys_mem.reset_to_baseline m : int);
    pm_state m = expected
  in
  List.iter (pm_apply m) ops;
  reset_matches ()
  && (match pm_lowest_free expected with
     | None -> true
     | Some lowest -> Phys_mem.alloc m Phys_mem.Xen = lowest)
  && reset_matches ()

let pm_ops =
  QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_bound 4) (pair small_nat int64)))

(* A re-capture on [m]: after [ops], the state [capture_baseline]
   freezes is the one every later round resets to. *)
let pm_recapture m ops =
  List.iter (pm_apply m) ops;
  Phys_mem.capture_baseline m;
  pm_state m

let prop_phys_mem_reset_fork =
  QCheck.Test.make ~name:"phys_mem: fork resets to its template" ~count:100
    (QCheck.triple pm_ops pm_ops pm_ops) (fun (ops1, ops2, ops3) ->
      let tmpl = pm_base () in
      Phys_mem.capture_baseline tmpl;
      Phys_mem.freeze tmpl;
      let expected = pm_state tmpl in
      let f = Phys_mem.fork tmpl and sibling = Phys_mem.fork tmpl in
      pm_round f expected ops1
      && pm_round f expected ops2
      &&
      let second = pm_recapture f ops3 in
      pm_round f second ops1
      && pm_round f second ops2
      && pm_round sibling expected ops3
      && pm_state tmpl = expected)

let prop_phys_mem_reset_captured =
  QCheck.Test.make ~name:"phys_mem: captured baseline resets exactly" ~count:100
    (QCheck.triple pm_ops pm_ops pm_ops) (fun (ops1, ops2, ops3) ->
      let m = pm_base () in
      Phys_mem.capture_baseline m;
      let expected = pm_state m in
      pm_round m expected ops1
      && pm_round m expected ops2
      &&
      let second = pm_recapture m ops3 in
      pm_round m second ops1 && pm_round m second ops2)

(* --- In-place Hv.restore ---------------------------------------------------- *)

(* A trial that touches every piece of domain state a reset rolls back:
   event channels (bind + send), a grant, ballooned-out pages, the
   page-table list, the crash flag — and a domain created mid-trial. *)
let domain_trial (tb : Testbed.t) =
  let hv = tb.Testbed.hv in
  let k = tb.Testbed.attacker in
  let victim = Kernel.dom tb.Testbed.victim in
  let populated = Domain.populated_count victim in
  Xenstore.inject_write hv.Hv.xenstore
    (Xenstore.domain_path victim.Domain.id "memory/target")
    "48";
  Testbed.tick_all tb;
  check_bool "pages ballooned out" true (Domain.populated_count victim < populated);
  (match
     Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_bind_virq { virq = 0 }))
   with
  | Ok port ->
      ignore
        (Kernel.hypercall k
           (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = Int64.to_int port })))
  | Error _ -> Alcotest.fail "bind_virq");
  check_bool "port pending" true (Event_channel.any_pending (Kernel.dom k).Domain.events);
  (match
     Kernel.hypercall k
       (Hypercall.Grant_table_op
          (Hypercall.Gnttab_grant_access { gref = 3; grantee = 0; pfn = 3; readonly = false }))
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "grant_access");
  victim.Domain.dom_crashed <- true;
  (Kernel.dom k).Domain.pt_pages <- [];
  Builder.create_domain hv ~name:"guest99" ~privileged:false ~pages:32

(* The entries and ports are copied out of their (mutable) records, so
   a view taken earlier stays what it was. *)
let domain_view (d : Domain.t) =
  let g = d.Domain.grant in
  let entry i =
    Option.map
      (fun e ->
        Grant_table.(e.permit, e.grantee, e.g_mfn, e.readonly, e.in_use))
      (Grant_table.entry g i)
  and port i =
    Option.map
      (fun p -> Event_channel.(p.binding, p.pending, p.masked))
      (Event_channel.port d.Domain.events i)
  in
  ( ( List.init (Domain.max_pfn d) (Domain.mfn_of_pfn d),
      List.init 64 entry,
      List.init 64 port,
      d.Domain.pt_pages,
      d.Domain.dom_crashed,
      d.Domain.l4_mfn ),
    ( Grant_table.version g,
      Grant_table.status_frames g,
      Grant_table.shared_frames g,
      List.sort compare (Grant_table.mappings g),
      Grant_table.next_handle g ) )

let test_restore_in_place make () =
  let tb = make () in
  let hv = tb.Testbed.hv in
  let records = hv.Hv.domains in
  let reference = List.map domain_view (Testbed.create_pooled Version.V4_8).Testbed.hv.Hv.domains in
  check_bool "starts at the reference state" true (List.map domain_view records = reference);
  for round = 1 to 2 do
    let extra = domain_trial tb in
    check_bool "the trial diverged" true (List.map domain_view hv.Hv.domains <> reference);
    Testbed.reset tb;
    let r = Printf.sprintf "round %d: " round in
    check_int (r ^ "domain count") (List.length records) (List.length hv.Hv.domains);
    check_bool (r ^ "same records") true (List.for_all2 ( == ) records hv.Hv.domains);
    check_bool (r ^ "state = fresh fork") true (List.map domain_view hv.Hv.domains = reference);
    check_bool (r ^ "trial domain gone") true (Hv.find_domain hv extra.Domain.id = None)
  done

(* A checkpointed domain the trial destroyed has no live record to
   restore into: it comes back as a fresh copy, equal to the reference,
   while the surviving records keep their identity. *)
let test_restore_destroyed_domain () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let hv = tb.Testbed.hv in
  let records = hv.Hv.domains in
  let reference = List.map domain_view (Testbed.create_pooled Version.V4_8).Testbed.hv.Hv.domains in
  let victim = Kernel.dom tb.Testbed.victim in
  (match Domctl.destroy hv victim with Ok _ -> () | Error _ -> Alcotest.fail "destroy");
  check_bool "victim delisted" true (Hv.find_domain hv victim.Domain.id = None);
  Testbed.reset tb;
  check_bool "state = fresh fork" true (List.map domain_view hv.Hv.domains = reference);
  List.iter2
    (fun old now ->
      check_bool
        (Printf.sprintf "d%d identity" old.Domain.id)
        (old != victim) (old == now))
    records hv.Hv.domains

(* In-place kernel, network and domain reset: a seeded mix of guest-side
   state changes and hypercalls, then [Testbed.reset], must leave every
   kernel, the network and every domain record equal to a fresh fork's,
   in the same objects unless the trial destroyed the kernel's domain.
   The domain records are restored from what changed since the
   checkpoint, so this is the oracle for those change sets. *)
let write_vdso (tb : Testbed.t) k payload =
  let dom = Kernel.dom k in
  match Domain.mfn_of_pfn dom dom.Domain.vdso_pfn with
  | None -> ()
  | Some mfn ->
      let ma = Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int Builder.Vdso.code_off) in
      Phys_mem.write_bytes tb.Testbed.hv.Hv.mem ma (Kernel.Backdoor.encode payload)

let listen_ports = [ 1234; 1235; 1236 ]

(* Hypercalls that change what [Domain.restore_into] rolls back: grant
   entries, the grant table's version, frames, maptrack and handles,
   event-channel ports, and the P2M. [k] is a live kernel, [g] a guest
   kernel, possibly [k] itself or destroyed. *)
let domain_op k g op n =
  let call k c = ignore (Kernel.hypercall k c) in
  let gnt k op = call k (Hypercall.Grant_table_op op) in
  let evt k op = call k (Hypercall.Event_channel_op op) in
  let gref = n mod 2 and port = n mod 2 and pfn = 3 + (n mod 60) in
  match op with
  | 0 ->
      gnt k
        (Hypercall.Gnttab_grant_access
           { gref; grantee = Kernel.domid g; pfn; readonly = n mod 2 = 0 })
  | 1 -> gnt g (Hypercall.Gnttab_map { granter = Kernel.domid k; gref })
  | 2 -> gnt g (Hypercall.Gnttab_unmap { granter = Kernel.domid k; handle = n mod 4 })
  | 3 -> gnt k (Hypercall.Gnttab_end_access { gref })
  | 4 -> gnt k (Hypercall.Gnttab_set_version (if n mod 2 = 0 then Grant_table.V2 else V1))
  | 5 -> gnt k (Hypercall.Gnttab_setup_table { nr_frames = 1 })
  | 6 -> evt k (Hypercall.Evtchn_bind_virq { virq = n mod 4 })
  | 7 -> evt k (Hypercall.Evtchn_alloc_unbound { allowed_remote = Kernel.domid g })
  | 8 ->
      evt g (Hypercall.Evtchn_bind_interdomain { remote_dom = Kernel.domid k; remote_port = port })
  | 9 -> evt k (Hypercall.Evtchn_send { port })
  | 10 -> evt k (Hypercall.Evtchn_close { port })
  | 11 -> call k (Hypercall.Decrease_reservation [ pfn ])
  | _ ->
      call k
        (Hypercall.Memory_exchange
           { Memory_exchange.in_pfns = [ pfn ]; out_extent_start = Domain.kernel_vaddr_of_pfn 6 })

let apply_mix (tb : Testbed.t) (op, (pick, n)) =
  let hv = tb.Testbed.hv in
  let ks = Array.of_list (Testbed.kernels tb) in
  let k = ks.(pick mod Array.length ks) in
  let guests = Array.of_list (Testbed.guest_kernels tb) in
  let g = guests.(pick mod Array.length guests) in
  let live k = Option.is_some (Hv.find_domain hv (Kernel.domid k)) in
  let port = List.nth listen_ports (n mod 3) in
  if live k then
    match op with
    | 0 -> Kernel.printk k (Printf.sprintf "mix %d" n)
    | 1 ->
        write_vdso tb k
          (Kernel.Backdoor.Run_as_root (Printf.sprintf "echo %d > /tmp/mix%d" n (n mod 4)));
        Testbed.tick_all tb
    | 2 -> ignore (Process.spawn (Kernel.processes k) ~uid:(n mod 2 * 1000) ~cmdline:"mix")
    | 3 -> ignore (Process.kill (Kernel.processes k) ~pid:(List.nth [ 1; 1000; 1001 ] (n mod 3)))
    | 4 ->
        Kernel.bind_irq_handler k ~port:(n mod 64) (fun () -> Kernel.printk k "irq");
        ignore (Event_channel.force_pending_all (Kernel.dom k).Domain.events);
        Testbed.tick_all tb
    | 5 -> Testbed.remote_listen tb ~port
    | 6 ->
        write_vdso tb k (Kernel.Backdoor.Reverse_shell { host = tb.Testbed.remote_host; port });
        Testbed.tick_all tb
    | 7 ->
        Xenstore.inject_write hv.Hv.xenstore
          (Xenstore.domain_path (Kernel.domid k) "memory/target")
          (string_of_int (48 + (n mod 48)));
        Testbed.tick_all tb
    | 8 -> ignore (Sched.hang_vcpu hv.Hv.sched ~dom:(Kernel.domid k) ~reason:"mix")
    | 9 -> ignore (Sched.unhang_vcpu hv.Hv.sched ~dom:(Kernel.domid k))
    | 10 -> if live g then ignore (Domctl.destroy hv (Kernel.dom g))
    | 11 -> Testbed.tick_all tb
    | op -> domain_op k g (op - 12) n

let fs_view fs = List.map (fun p -> (p, Fs.read fs p)) (Fs.paths fs)

let kernel_view k =
  ( (Kernel.hostname k, Kernel.domid k, Kernel.klog k, Kernel.irqs_handled k),
    fs_view (Kernel.fs k),
    List.map
      (fun p -> (p.Process.pid, p.Process.uid, p.Process.cmdline, p.Process.vdso_calls))
      (Process.list (Kernel.processes k)) )

let net_view (tb : Testbed.t) =
  List.map
    (fun port ->
      let host = tb.Testbed.remote_host in
      ( Netsim.is_listening tb.Testbed.net ~host ~port,
        List.map
          (fun c -> (c.Netsim.conn_id, c.Netsim.from_host, c.Netsim.conn_uid, Netsim.transcript c))
          (Netsim.connections_to tb.Testbed.net ~host ~port) ))
    listen_ports

let testbed_view tb = (List.map kernel_view (Testbed.kernels tb), net_view tb)

(* The same workload on both testbeds exposes what a view cannot read
   directly: leftover irq handlers (they log), the process and
   connection counters (the next pid and connection id). *)
let probe (tb : Testbed.t) =
  Testbed.remote_listen tb ~port:1234;
  List.iter
    (fun k ->
      Kernel.printk k "probe";
      ignore (Process.spawn (Kernel.processes k) ~uid:0 ~cmdline:"probe");
      ignore (Event_channel.force_pending_all (Kernel.dom k).Domain.events))
    (Testbed.kernels tb);
  ignore
    (Netsim.connect tb.Testbed.net ~from_host:"probe" ~from_ip:"10.0.0.1"
       ~host:tb.Testbed.remote_host ~port:1234 ~uid:0 ~exec:(fun _ -> ""));
  Testbed.tick_all tb

let mix_ops =
  QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 24) (pair small_nat small_nat)))

let prop_reset_in_place =
  QCheck.Test.make ~name:"kernels and network reset in place = fresh fork" ~count:80
    (QCheck.list_of_size (QCheck.Gen.int_range 1 3) mix_ops)
    (fun mixes ->
      let make () = Testbed.create_pooled ~domains:3 Version.V4_8 in
      let tb = make () in
      List.for_all
        (fun mix ->
          let before = Testbed.kernels tb in
          List.iter (apply_mix tb) mix;
          let destroyed =
            List.map (fun k -> Hv.find_domain tb.Testbed.hv (Kernel.domid k) = None) before
          in
          Testbed.reset tb;
          let fresh = make () in
          let same_objects =
            List.for_all2
              (fun (k, gone) k' -> if gone then k != k' else k == k')
              (List.combine before destroyed) (Testbed.kernels tb)
          in
          let domains (tb : Testbed.t) = List.map domain_view tb.Testbed.hv.Hv.domains in
          let equal_now = testbed_view tb = testbed_view fresh && domains tb = domains fresh in
          probe tb;
          probe fresh;
          let equal_probed = testbed_view tb = testbed_view fresh in
          Testbed.reset tb;
          same_objects && equal_now && equal_probed && domains tb = domains (make ()))
        mixes)

(* A reset hands every frame written since the baseline back to the
   template and keeps the private storage for the next write to fill.
   On a fork and on a memory that captured its own baseline, after any
   mix of writes, allocations, frees and claims: each reset leaves every
   frame shared and every frame's bytes the template's; a frame written
   next holds its template bytes plus that one write, and every frame
   handed out or freed reads zero, so recycled storage never shows
   another frame's bytes. *)
let zero_hash = Phys_mem.frame_hash (Phys_mem.create ~frames:1) 0
let all_zero m mfn = Phys_mem.frame_hash m mfn = zero_hash

let recycle_apply m (kind, (a, v)) =
  let mfn = a mod pm_frames in
  match kind with
  | 0 ->
      Phys_mem.set_u64 m mfn (Int64.to_int (Int64.logand v 511L) * 8) v;
      true
  | 1 ->
      (* a run that can span frames, ending at most at the last one *)
      let len = 1 + Int64.to_int (Int64.logand v 8191L) in
      let ma = min (mfn * Addr.page_size) ((pm_frames * Addr.page_size) - len) in
      Phys_mem.write_bytes m (Int64.of_int ma) (Bytes.make len (Char.chr (1 + (a land 127))));
      true
  | 2 -> (
      match Phys_mem.alloc m (Phys_mem.Dom 7) with
      | exception Failure _ -> true
      | got -> all_zero m got)
  | 3 ->
      Phys_mem.free m mfn;
      all_zero m mfn
  | _ ->
      let n = min (a mod 8) (Phys_mem.free_frames m) in
      let got = Array.sub (Phys_mem.claim m Phys_mem.Xen n) 0 n in
      Array.for_all (all_zero m) got

let recycle_round m reference (ops, (a, v)) =
  let reshared () =
    ignore (Phys_mem.reset_to_baseline m : int);
    Phys_mem.shared_frames m = pm_frames
    && List.for_all
         (fun mfn -> Phys_mem.frame_hash m mfn = Phys_mem.frame_hash reference mfn)
         (List.init pm_frames Fun.id)
  in
  let applied = List.for_all (recycle_apply m) ops in
  applied && reshared ()
  &&
  let mfn = a mod pm_frames and off = Int64.to_int (Int64.logand v 511L) * 8 in
  Phys_mem.set_u64 m mfn off v;
  let expected = Frame.to_bytes (Phys_mem.frame_ro reference mfn) in
  Bytes.set_int64_le expected off v;
  Phys_mem.read_bytes m (Addr.maddr_of_mfn mfn) Addr.page_size = expected && reshared ()

let prop_phys_mem_recycles =
  QCheck.Test.make ~name:"phys_mem: reset re-shares every frame and recycles its storage"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (pair
           (list_of_size (Gen.int_range 0 20) (pair (int_bound 4) (pair small_nat int64)))
           (pair small_nat int64)))
    (fun rounds ->
      let reference = pm_base () in
      let tmpl = pm_base () in
      Phys_mem.capture_baseline tmpl;
      Phys_mem.freeze tmpl;
      let captured = pm_base () in
      Phys_mem.capture_baseline captured;
      List.for_all
        (fun m -> List.for_all (recycle_round m reference) rounds)
        [ Phys_mem.fork tmpl; captured ])

(* The change sets behind [Domain.restore_into] hold for any
   checkpoint, not only the boot-time one a testbed resets to: after
   [pre] grants, binds and exchanges some state, a checkpoint, then
   [post] and a restore bring every domain record back to the view at
   the checkpoint — entries and ports that were already in use there
   included. *)
let domain_ops =
  QCheck.(
    list_of_size (Gen.int_range 0 16) (pair (int_bound 12) (pair (int_bound 1) (int_bound 3))))

let prop_domain_restore_any_checkpoint =
  QCheck.Test.make ~name:"domains restore to a mid-trial checkpoint" ~count:60
    (QCheck.pair domain_ops domain_ops) (fun (pre, post) ->
      let tb = Testbed.create Version.V4_8 in
      let hv = tb.Testbed.hv in
      let apply (op, (pick, n)) =
        let ks = Array.of_list (Testbed.kernels tb) in
        domain_op ks.(pick) ks.((pick + 1) mod Array.length ks) op n
      in
      let view () = List.map domain_view hv.Hv.domains in
      List.iter apply pre;
      let ck = Hv.checkpoint hv in
      let at_checkpoint = view () in
      List.iter apply post;
      Hv.restore hv ck;
      let once = view () = at_checkpoint in
      List.iter apply post;
      Hv.restore hv ck;
      once && view () = at_checkpoint)

(* --- Maintained counters -----------------------------------------------------

   A domain's populated P2M slots, an event-channel table's pending ports
   and a filesystem's root files are kept by their one writer, so the
   monitor and the kernel tick read them in O(1). Each must equal the
   rescan it replaced after any mix of writes, and in every copy and
   restore. *)
let slot_count d =
  let n = ref 0 in
  for pfn = 0 to Domain.max_pfn d - 1 do
    if Option.is_some (Domain.mfn_of_pfn d pfn) then incr n
  done;
  !n

let port_scan ev =
  let n = ref 0 in
  for i = 0 to Event_channel.max_ports ev - 1 do
    match Event_channel.port ev i with
    | Some p when p.Event_channel.pending -> incr n
    | Some _ | None -> ()
  done;
  !n

let root_fold fs =
  List.sort compare
    (Fs.fold
       (fun path f acc -> if f.Fs.uid = 0 && f.Fs.content <> "" then (path, f.Fs.content) :: acc else acc)
       fs [])

let domain_counters_hold d =
  let ev = d.Domain.events in
  Domain.populated_count d = slot_count d
  && Event_channel.pending_count ev = port_scan ev
  && Event_channel.any_pending ev = (port_scan ev > 0)

let counters_hold (tb : Testbed.t) =
  List.for_all domain_counters_hold tb.Testbed.hv.Hv.domains
  && List.for_all (fun k -> Fs.root_files (Kernel.fs k) = root_fold (Kernel.fs k)) (Testbed.kernels tb)

(* One write to a pair of standalone domains: [n]'s parity picks the
   domain written, the other is the peer of an interdomain bind. *)
let counter_op (a, b) (op, (i, n)) =
  let d, peer = if n land 1 = 0 then (a, b) else (b, a) in
  let ev = d.Domain.events and port = i mod 8 in
  match op with
  | 0 -> Domain.set_p2m d (i mod Domain.max_pfn d) None
  | 1 -> Domain.set_p2m d (i mod Domain.max_pfn d) (Some n)
  | 2 -> ignore (Event_channel.alloc_unbound ev ~allowed_remote:peer.Domain.id)
  | 3 -> ignore (Event_channel.bind_virq ev ~virq:n)
  | 4 ->
      ignore
        (Event_channel.bind_interdomain ~local:peer.Domain.events ~local_dom:peer.Domain.id
           ~remote:ev ~remote_dom:d.Domain.id ~remote_port:port)
  | 5 -> ignore (Event_channel.send ev port)
  | 6 -> ignore (Event_channel.consume ev port)
  | 7 -> ignore (Event_channel.close ev port)
  | _ -> ignore (Event_channel.force_pending_all ev)

let counter_ops =
  QCheck.(list_of_size (Gen.int_range 0 24) (pair (int_bound 8) (pair small_nat small_nat)))

let prop_domain_counters =
  QCheck.Test.make ~name:"populated and pending counts = rescans" ~count:200
    (QCheck.pair counter_ops counter_ops) (fun (pre, post) ->
      let make id =
        Domain.make ~id ~name:"d" ~privileged:false ~max_pfn:16 ~start_info_pfn:0 ~vdso_pfn:1
      in
      let a = make 1 and b = make 2 in
      let both () = domain_counters_hold a && domain_counters_hold b in
      let run = List.for_all (fun op -> counter_op (a, b) op; both ()) in
      let ran_pre = run pre in
      let ck_a = Domain.checkpoint a and ck_b = Domain.checkpoint b in
      let ran_post = run post in
      let copies = domain_counters_hold (Domain.deep_copy a) && domain_counters_hold ck_a in
      Domain.restore_into a ~from:ck_a;
      Domain.restore_into b ~from:ck_b;
      ran_pre && ran_post && copies && both ()
      && Domain.populated_count a = Domain.populated_count ck_a
      && Event_channel.pending_count a.Domain.events = Event_channel.pending_count ck_a.Domain.events)

(* The hypervisor's own writers (hypercalls, storms, ballooning, domain
   destruction) and the guests' file writes, through [apply_mix] and
   three direct file ops; then a reset, and a pooled fork. *)
let fs_op (tb : Testbed.t) (op, (pick, n)) =
  let ks = Array.of_list (Testbed.kernels tb) in
  let fs = Kernel.fs ks.(pick mod Array.length ks) in
  let path = List.nth [ "/root/root_msg"; "/root/b"; "/tmp/c" ] (n mod 3) in
  match op with
  | 0 -> Fs.write fs ~path ~uid:0 (string_of_int n)
  | 1 -> Fs.write fs ~path ~uid:(n mod 2 * 1000) ""
  | _ -> Fs.remove fs path

let prop_testbed_counters =
  QCheck.Test.make ~name:"testbed counters = rescans: live, reset, pooled fork" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_bound 27) (pair small_nat small_nat)))
    (fun mix ->
      let make () = Testbed.create_pooled ~domains:3 Version.V4_8 in
      let tb = make () in
      let live =
        List.for_all
          (fun ((op, arg) as o) ->
            if op < 25 then apply_mix tb o else fs_op tb (op - 25, arg);
            counters_hold tb)
          mix
      in
      Testbed.reset tb;
      live && counters_hold tb && counters_hold (make ()))

(* [Kernel.reset] keeps a filesystem nothing wrote since boot, memo
   included, and rebuilds a written one to its boot files. *)
let test_kernel_reset_fs () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let fs = Kernel.fs tb.Testbed.dom0 in
  let boot = fs_view fs and root = Fs.root_files fs and gen = Fs.generation fs in
  Testbed.reset tb;
  check_int "untouched: same generation" gen (Fs.generation fs);
  check_bool "untouched: same root files" true (Fs.root_files fs == root);
  Fs.write fs ~path:"/tmp/x" ~uid:0 "x";
  Fs.remove fs "/root/root_msg";
  check_bool "written: root files follow" true (Fs.root_files fs = [ ("/tmp/x", "x") ]);
  Testbed.reset tb;
  check_bool "written: boot files" true (fs_view fs = boot);
  check_bool "written: boot root files" true (Fs.root_files fs = root);
  let gen = Fs.generation fs in
  Testbed.reset tb;
  check_int "rebuilt, then untouched" gen (Fs.generation fs)

(* Log lines keep their bytes now that they are formatted on read: the
   stamps, a tagged line, and the balloon driver's line (the fault line
   is pinned in test_guest "fault klog line"). *)
let test_klog_lines () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let k = tb.Testbed.victim in
  Kernel.printk k "hello";
  Kernel.printk_tagged k ~tag:"xen_exploit" "xen version = 4.6";
  Xenstore.inject_write tb.Testbed.hv.Hv.xenstore
    (Xenstore.domain_path (Kernel.domid k) "memory/target")
    "93";
  Kernel.balloon k;
  Alcotest.(check (list string))
    "lines"
    [
      "[  116.0017] hello";
      "[  116.0034] xen_exploit:\txen version = 4.6";
      "[  116.0051] balloon: released pfn 88 (target 93)";
      "[  116.0068] balloon: released pfn 87 (target 93)";
      "[  116.0085] balloon: released pfn 86 (target 93)";
    ]
    (Kernel.klog k);
  for _ = 1 to 70 do
    Kernel.printk k "x"
  done;
  Alcotest.(check string) "past 1000 jiffies" "[  117.1275] x" (List.nth (Kernel.klog k) 74)

(* --- Component-hook trials --------------------------------------------------- *)

(* The two costliest randomized hooks as trials: forging the victim's
   balloon target (hook 2) and exhausting host memory (hook 3), each
   followed by the randomized campaign's activation. Pinned: the
   verdict, the telemetry and virtual time, the victim's balloon lines
   and the free-frame count before the next reset — twice on one
   testbed, so the second trial runs on a reset machine. *)
let hook_activate (tb : Testbed.t) =
  Testbed.tick_all tb;
  let k = tb.Testbed.attacker in
  ignore (Hv.deliver_fault tb.Testbed.hv ~vector:32 ~detail:"timer interrupt");
  ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
  ignore (Kernel.read_u64 k (Domain.kernel_vaddr_of_pfn 6));
  ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L);
  ignore (Kernel.hypercall_rc k (Hypercall.Console_io "campaign tick"));
  Testbed.tick_all tb

let balloon_hook (tb : Testbed.t) =
  Xenstore.inject_write tb.Testbed.hv.Hv.xenstore
    (Xenstore.domain_path (Kernel.domid tb.Testbed.victim) "memory/target")
    "48"

let exhaust_hook (tb : Testbed.t) =
  let hv = tb.Testbed.hv in
  ignore (Hv.exhaust_memory hv ~leave:(Phys_mem.free_frames hv.Hv.mem / 4))

let hook_trial (tb : Testbed.t) hook =
  let free = ref 0 in
  let row =
    Campaign.trial tb ~name:"hook" Campaign.Injection Version.V4_8 (fun tb ->
        hook tb;
        hook_activate tb;
        free := Phys_mem.free_frames tb.Testbed.hv.Hv.mem;
        { Campaign.transcript = []; states = []; rc = None })
  in
  let is_balloon l =
    match String.index_opt l ']' with
    | Some i -> String.starts_with ~prefix:"] balloon:" (String.sub l i (String.length l - i))
    | None -> false
  in
  let balloon = List.filter is_balloon (Kernel.klog tb.Testbed.victim) in
  ( List.map Monitor.violation_to_string row.Campaign.r_violations,
    Fingerprint.Xen.telemetry row.Campaign.r_telemetry,
    row.Campaign.r_vtime_ns,
    balloon,
    !free )

let check_hook_trial make hook ~violations ~telemetry ~vtime ~balloon ~free () =
  let tb = make () in
  for round = 1 to 2 do
    let v, tm, vt, bl, fr = hook_trial tb hook in
    let r = Printf.sprintf "round %d: " round in
    Alcotest.(check (list string)) (r ^ "violations") violations v;
    Alcotest.(check string) (r ^ "telemetry") telemetry tm;
    Alcotest.(check int64) (r ^ "vtime") vtime vt;
    Alcotest.(check (list string)) (r ^ "balloon lines") balloon bl;
    check_int (r ^ "free frames before reset") free fr
  done

(* The victim's balloon releases pfns 88 down to 41, one line (17
   jiffies) each. *)
let balloon_lines =
  List.init 48 (fun i ->
      Printf.sprintf "[  116.%04d] balloon: released pfn %d (target 48)" (17 * (i + 1)) (88 - i))

let test_balloon_trial make =
  check_hook_trial make balloon_hook
    ~violations:[ "availability degradation (guest01 lost 48 pages to balloon pressure)" ]
    ~telemetry:"3:48,12:48,18:1|f0|F2|d0|fl0|i48|p48|g0|e0|inj0|vs0|vf0|vfr0" ~vtime:53087L
    ~balloon:balloon_lines ~free:1761

let test_exhaust_trial make =
  check_hook_trial make exhaust_hook
    ~violations:[ "availability degradation (host memory exhaustion (1713 -> 428 free frames))" ]
    ~telemetry:"18:1|f0|F2|d0|fl0|i0|p0|g0|e0|inj0|vs0|vf0|vfr0" ~vtime:1487L ~balloon:[]
    ~free:428

(* --- Allocation budgets ------------------------------------------------------ *)

(* Minor-heap words are deterministic for a given compiler, so these
   budgets hold on any hardware. *)
let arbitrary_physical_trial (tb : Testbed.t) =
  Injector.install tb.Testbed.hv;
  ignore
    (Injector.write_u64 tb.Testbed.attacker ~addr:0x9000L
       ~action:Injector.Arbitrary_write_physical 0xBEEFL);
  let k = tb.Testbed.attacker in
  Testbed.tick_all tb;
  ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
  ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L);
  Testbed.tick_all tb

(* [f] runs once to warm the TLB and dirty tracking, then [n] times
   measured. *)
let words_per_call ?(n = 1000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let within_budget what budget words =
  if words > budget then Alcotest.failf "%s allocated %.1f words (budget %.0f)" what words budget

(* Words allocated straight into the major heap so far. A minor
   collection first, so the promoted words that [Gc.quick_stat] counts
   have all reached [major_words] too; then a major slice, without
   which OCaml 5 may count a direct major allocation only at some later
   slice, inside a measured region that did not make it. *)
let direct_major_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* A budget that notes its measured figure (OCaml 5.1) allows about 15%
   more, for other compilers' boxing choices. *)
let test_reset_words () =
  let tb = Testbed.create_pooled Version.V4_8 in
  (* one warm-up trial so the measured reset is a steady-state one *)
  arbitrary_physical_trial tb;
  Testbed.reset tb;
  arbitrary_physical_trial tb;
  let w0 = Gc.minor_words () in
  Testbed.reset tb;
  (* measured 0: no kernel rebuilds a filesystem the trial left alone *)
  within_budget "Testbed.reset" 0. (Gc.minor_words () -. w0)

(* The same budget on a forked and on a booted worker, which both reset
   to a frozen template (measured 840 on each) *)
let test_run_one_words pooled () =
  let w = Random_campaign.make_worker ~pooled Version.V4_8 in
  let trials = 600 in
  let run i = ignore (Random_campaign.run_one w ~seed:1L ~targets:Random_campaign.all_targets i) in
  run 0;
  let w0 = Gc.minor_words () in
  for i = 1 to trials do
    run i
  done;
  within_budget "Random_campaign.run_one (words per trial)" 965.
    ((Gc.minor_words () -. w0) /. float_of_int trials)

(* A scheduler round in which nothing happens: every kernel drains no
   event, reads its balloon target, finds no backdoor in its vDSO. *)
let test_quiet_tick_all_words () =
  let tb = Testbed.create_pooled Version.V4_8 in
  Testbed.tick_all tb;
  let w0 = Gc.minor_words () in
  Testbed.tick_all tb;
  (* measured 0 *)
  within_budget "quiet Testbed.tick_all" 0. (Gc.minor_words () -. w0)

(* The two costliest randomized hooks as whole trials (reset, hook,
   activation, snapshots), after a warm-up trial: the balloon's 96
   hypercalls and the exhaustion's 1,285 claimed frames. *)
let test_hook_trial_words hook budget () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let trial () =
    ignore
      (Campaign.trial tb ~name:"hook" Campaign.Injection Version.V4_8 (fun tb ->
           hook tb;
           hook_activate tb;
           { Campaign.transcript = []; states = []; rc = None }))
  in
  within_budget "hook trial" budget (words_per_call ~n:10 trial)

(* A fork holds no more private frames than one trial writes: over 1,000
   trials that each write a different frame, every write copies its
   frame into storage an earlier reset recycled, so the words allocated
   straight into the major heap stay below one frame's 513. *)
let test_trial_storage_words () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let mfns = Array.init (Phys_mem.total_frames tb.Testbed.hv.Hv.mem) Fun.id in
  let rng = Random.State.make [| 36 |] in
  for i = Array.length mfns - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = mfns.(i) in
    mfns.(i) <- mfns.(j);
    mfns.(j) <- x
  done;
  let trial mfn =
    ignore
      (Campaign.trial tb ~name:"frame" Campaign.Injection Version.V4_8 (fun tb ->
           Phys_mem.write_u64 tb.Testbed.hv.Hv.mem (Addr.maddr_of_mfn mfn) 0xA11C0L;
           { Campaign.transcript = []; states = []; rc = None }))
  in
  trial mfns.(0);
  let w0 = direct_major_words () in
  for i = 1 to 1000 do
    trial mfns.(i)
  done;
  within_budget "direct major words over 1,000 one-frame trials" 512. (direct_major_words () -. w0)

(* A template boot and a fork from it, in minor and direct-major words:
   [Page_info] is one int column, copied whole by a fork, so neither
   allocates a value per frame, and a fork's touched sets start small. *)
let test_boot_fork_words () =
  let words n f =
    let w0 = Gc.minor_words () and d0 = direct_major_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let n = float_of_int n in
    ((Gc.minor_words () -. w0) /. n, (direct_major_words () -. d0) /. n)
  in
  let boot () = Testbed.create Version.V4_8 in
  let template = boot () in
  Phys_mem.freeze template.Testbed.hv.Hv.mem;
  let minor, direct = words 4 boot in
  (* measured 59,566 and 39,270, most of the latter the frames the boot
     writes *)
  within_budget "Testbed.create (minor)" 68_500. minor;
  within_budget "Testbed.create (direct major)" 45_200. direct;
  let minor, direct = words 20 (fun () -> Testbed.fork template) in
  (* measured 5,910 and 7,693 *)
  within_budget "Testbed.fork (minor)" 6_800. minor;
  within_budget "Testbed.fork (direct major)" 8_850. direct

(* The guest memory access path on the benchmark's corpus shape: a
   4-domain 4.6 pooled testbed under the default load. *)
let loaded_46 () = Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default Version.V4_6

(* A reset of that shape after a scheduler round: the four guests' load
   streams are re-seeded in place, not rebuilt *)
let test_loaded_reset_words () =
  let tb = loaded_46 () in
  Testbed.tick_all tb;
  Testbed.reset tb;
  Testbed.tick_all tb;
  let w0 = Gc.minor_words () in
  Testbed.reset tb;
  (* measured 12: one boxed seed per stream *)
  within_budget "loaded Testbed.reset" 14. (Gc.minor_words () -. w0)

let test_read_hit_words () =
  let k = (loaded_46 ()).Testbed.attacker in
  let va = Domain.kernel_vaddr_of_pfn 6 in
  within_budget "TLB-hit Kernel.read_u64" 24.
    (words_per_call (fun () -> ignore (Kernel.read_u64 k va)))

let test_write_hit_words () =
  let k = (loaded_46 ()).Testbed.attacker in
  let va = Domain.kernel_vaddr_of_pfn 6 in
  within_budget "TLB-hit Kernel.write_u64" 24.
    (words_per_call (fun () -> ignore (Kernel.write_u64 k va 0xA11CEL)))

let test_invlpg_read_words () =
  let k = (loaded_46 ()).Testbed.attacker in
  let va = Domain.kernel_vaddr_of_pfn 6 in
  within_budget "invlpg + Kernel.read_u64" 64.
    (words_per_call (fun () ->
         Kernel.invlpg k va;
         ignore (Kernel.read_u64 k va)))

(* The cell the vDSO scan dominates: every machine frame through the
   linear-PT window, a PTE write, an invlpg and a read each, all but a
   few fast-forwarded (measured 17,629). *)
let test_xsa212_priv_words () =
  let tb = loaded_46 () in
  let uc = use_case "XSA-212-priv" in
  within_budget "XSA-212-priv 4.6 injection Campaign.run" 20_300.
    (words_per_call ~n:1 (fun () -> ignore (Campaign.run ~tb uc Campaign.Injection Version.V4_6)))

(* A frame the window scan fast-forwards allocates nothing. *)
let test_remap_words () =
  let tb = loaded_46 () in
  ignore (Campaign.run ~tb (use_case "XSA-212-priv") Campaign.Injection Version.V4_6);
  let k = tb.Testbed.attacker and w = xsa212_window in
  (* the first remap through the kernel's accessors sets the scan up *)
  ignore (Toolkit.window_read k w 0 ~off:0 ~len:8);
  let cpu = tb.Testbed.hv.Hv.cpu in
  match Cpu.remap cpu ~cr3:(attacker_cr3 tb) ~slot:w.Toolkit.slot ~window:w.Toolkit.va with
  | None -> Alcotest.fail "the XSA-212 window cannot be fast-forwarded"
  | Some r ->
      let page = Bytes.create 40 and mfn = ref 0 in
      let step () =
        mfn := (!mfn + 1) land 2047;
        if not (Cpu.remap_read_into r ~leaf:(Toolkit.leaf !mfn) page 0 40) then
          Alcotest.fail "fast-forward refused"
      in
      within_budget "fast-forwarded frame" 0. (words_per_call ~n:2048 step)

(* A trial that dirties one page table or one M2P frame snapshots
   within the clean snapshot's budget: the re-probe of the dirty table
   and the M2P recount allocate nothing. A clean snapshot of a default
   4.8 testbed (dom0 and two guests) measured 169 words. *)
let snapshot_budget = 195.

let test_snapshot_words () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let hv = tb.Testbed.hv and dom = Kernel.dom tb.Testbed.attacker in
  let snap () = ignore (Substrate_xen.snapshot tb) in
  within_budget "clean snapshot" snapshot_budget (words_per_call ~n:100 snap);
  set_pte tb (kernel_l1 dom) 300 (rw_user (Option.get (Domain.mfn_of_pfn dom 20)));
  within_budget "snapshot with one dirty L1" snapshot_budget (words_per_call ~n:100 snap);
  Testbed.reset tb;
  let mfn = Option.get (Domain.mfn_of_pfn dom 20) in
  Phys_mem.write_u64 hv.Hv.mem
    (Int64.add (Addr.maddr_of_mfn (Hv.m2p_frame_for hv mfn)) (Int64.of_int (Hv.m2p_offset mfn)))
    7L;
  within_budget "snapshot with one dirty M2P frame" snapshot_budget (words_per_call ~n:100 snap)

(* Exhausting memory claims its frames in one bitmap pass and marks
   them in int stacks: the words it allocates (the console line) do not
   grow with the frames it takes. On a pooled testbed, whose baseline
   is its template, so dirtying saves no pre-image. *)
let test_exhaust_memory_words () =
  let tb = Testbed.create_pooled Version.V4_8 in
  let hv = tb.Testbed.hv in
  let exhaust keep =
    Testbed.reset tb;
    let leave = Phys_mem.free_frames hv.Hv.mem - keep in
    let w0 = Gc.minor_words () in
    let taken = Hv.exhaust_memory hv ~leave in
    let words = Gc.minor_words () -. w0 in
    check_int "frames taken" keep taken;
    words
  in
  ignore (exhaust 1000);
  within_budget "exhaust_memory taking 10 frames" 100. (exhaust 10);
  within_budget "exhaust_memory taking 1,000 frames" 100. (exhaust 1000)

(* The corpus cells of the benchmark's [corpus] workload: every use case
   on every configuration in both modes, on long-lived pooled testbeds
   with 4 domains under the default load. One warm-up pass, then the
   median over a measured pass of each cell's words — the figure the
   benchmark reports as [campaign.run_words.*]. The median, because
   the XSA-212-priv cells allocate ~17k words each in the vDSO scan
   and would dominate a mean. *)
let corpus_words ~configs ~use_cases ~create ~run =
  let tbs = List.map (fun c -> (c, create c)) configs in
  let pass () =
    List.concat_map
      (fun uc ->
        List.concat_map
          (fun (c, tb) ->
            List.map
              (fun mode ->
                let w0 = Gc.minor_words () in
                ignore (run ~tb uc mode c);
                Gc.minor_words () -. w0)
              [ Campaign.Real_exploit; Campaign.Injection ])
          tbs)
      use_cases
  in
  ignore (pass ());
  let words = Array.of_list (pass ()) in
  Array.sort compare words;
  let n = Array.length words in
  (words.((n - 1) / 2) +. words.(n / 2)) /. 2.

let test_campaign_words_xen () =
  let median =
    corpus_words ~configs:Version.all ~use_cases:All.use_cases
      ~create:(Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default)
      ~run:(fun ~tb uc mode v -> Campaign.run ~tb uc mode v)
  in
  if median > 20000. then
    Alcotest.failf "Campaign.run (xen corpus) allocated a median %.0f words/cell (budget 20000)"
      median

let test_campaign_words_kvm () =
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let median =
    corpus_words ~configs:Ii_backends.Backend_kvm.configs ~use_cases:All.kvm_use_cases
      ~create:(Ii_backends.Backend_kvm.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default)
      ~run:(fun ~tb uc mode c -> KC.run ~tb uc mode c)
  in
  if median > 5000. then
    Alcotest.failf "Campaign.run (kvm corpus) allocated a median %.0f words/cell (budget 5000)"
      median

(* --- Window scans ------------------------------------------------------------

   A scan through a remap window fast-forwards a frame with
   [Cpu.remap_read_into] unless a per-access effect could be observed. A
   recording trace is one, so the same cell run with the ring enabled
   takes the kernel's accessors on every frame: both must leave the same
   machine. *)

(* Everything a scan step touches: the virtual clock, the TLB's stats
   and size, the tracer's counters and the bytes of every dirtied frame;
   then what the TLB holds for the XSA-212 slot and window (a read of
   each: the value and whether it hit). *)
let scan_state (tb : Testbed.t) =
  let hv = tb.Testbed.hv in
  let mem = hv.Hv.mem and tlb = Cpu.tlb hv.Hv.cpu in
  let dirtied =
    List.filter (Phys_mem.is_dirty mem) (List.init (Phys_mem.total_frames mem) Fun.id)
  in
  let state =
    ( Ii_trace.Trace.vts hv.Hv.trace,
      Paging.Tlb.stats tlb,
      Paging.Tlb.size tlb,
      Fingerprint.Xen.telemetry (Ii_trace.Trace.telemetry hv.Hv.trace),
      List.map (fun mfn -> (mfn, Phys_mem.frame_hash mem mfn)) dirtied )
  in
  let probe va =
    let v = Kernel.read_u64 tb.Testbed.attacker va in
    (v, Paging.Tlb.stats tlb)
  in
  (state, probe xsa212_window.Toolkit.slot, probe xsa212_window.Toolkit.va)

let pooled_corpus_testbed ~record v =
  let tb = Testbed.create_pooled ~domains:4 ~load:Ii_trace.Load_mix.default v in
  if record then Ii_trace.Trace.enable tb.Testbed.hv.Hv.trace;
  tb

let test_scan_cells_equivalent () =
  List.iter
    (fun name ->
      let uc = use_case name in
      List.iter
        (fun v ->
          List.iter
            (fun mode ->
              let run ~record =
                let tb = pooled_corpus_testbed ~record v in
                let row = Campaign.run ~tb uc mode v in
                ( Fingerprint.Xen.row row,
                  row.Campaign.r_vtime_ns,
                  scan_state tb )
              in
              check_bool
                (Printf.sprintf "%s %s %s" name (Version.to_string v)
                   (Campaign.mode_to_string mode))
                true
                (run ~record:false = run ~record:true))
            [ Campaign.Real_exploit; Campaign.Injection ])
        Version.all)
    [ "XSA-212-priv"; "XSA-148-priv" ]

(* Every condition the fast path rests on refuses it when broken: the
   set-up with [None], a step with [false] and nothing done. *)
let test_remap_refusals () =
  let tb = loaded_46 () in
  ignore (Campaign.run ~tb (use_case "XSA-212-priv") Campaign.Injection Version.V4_6);
  let hv = tb.Testbed.hv and k = tb.Testbed.attacker and w = xsa212_window in
  let cpu = hv.Hv.cpu and cr3 = attacker_cr3 tb in
  let setup ?(slot = w.Toolkit.slot) ?(window = w.Toolkit.va) () =
    ignore (Toolkit.window_read k w 0 ~off:0 ~len:8);
    Cpu.remap cpu ~cr3 ~slot ~window
  in
  let refused what r = check_bool what true (Option.is_none r) in
  check_bool "the window fast-forwards" true (Option.is_some (setup ()));
  refused "slot and window on one page" (setup ~window:w.Toolkit.slot ());
  refused "a window whose L1 entry is not the slot"
    (setup ~window:(Domain.kernel_vaddr_of_pfn 6) ());
  refused "a slot not 8-byte aligned" (setup ~slot:(Int64.add w.Toolkit.slot 4L) ());
  ignore (Toolkit.window_read k w 0 ~off:0 ~len:8);
  Kernel.invlpg k w.Toolkit.slot;
  refused "a slot not in the TLB" (Cpu.remap cpu ~cr3 ~slot:w.Toolkit.slot ~window:w.Toolkit.va);
  Ii_trace.Trace.enable hv.Hv.trace;
  refused "a recording trace" (setup ());
  Ii_trace.Trace.disable hv.Hv.trace;
  let page = Bytes.create 8 in
  let step what ~refused r =
    let stats = Paging.Tlb.stats (Cpu.tlb cpu) and vts = Ii_trace.Trace.vts hv.Hv.trace in
    check_bool what (not refused) (Cpu.remap_read_into r ~leaf:(Toolkit.leaf 5) page 0 8);
    if refused then
      check_bool (what ^ ": nothing done") true
        (Paging.Tlb.stats (Cpu.tlb cpu) = stats && Ii_trace.Trace.vts hv.Hv.trace = vts)
  in
  let r = Option.get (setup ()) in
  step "a step" ~refused:false r;
  Kernel.invlpg k w.Toolkit.va;
  step "a window not in the TLB" ~refused:true r;
  let r = Option.get (setup ()) in
  Ii_trace.Trace.enable hv.Hv.trace;
  step "a step while recording" ~refused:true r;
  Ii_trace.Trace.disable hv.Hv.trace;
  Phys_mem.free hv.Hv.mem (Phys_mem.alloc hv.Hv.mem Phys_mem.Xen);
  step "a step after the generation moved" ~refused:true r;
  let r = Option.get (setup ()) in
  check_bool "a leaf outside RAM" false
    (Cpu.remap_read_into r ~leaf:(Toolkit.leaf (Phys_mem.total_frames hv.Hv.mem)) page 0 8);
  check_bool "a read across a page" false
    (Cpu.remap_read_into r ~leaf:(Toolkit.leaf 5) (Bytes.create 4097) 0 4097)

(* Windows whose slot store would change more than the window's leaf,
   or fault: an L1 table that maps itself (slot and window on one
   page), an L4 entry that maps its own table at every level (the slot
   is also an upper entry of the window's walk), and a slot mapped
   read-only. *)
let test_remap_self_maps () =
  let mem = Phys_mem.create ~frames:16 in
  let tlb = Paging.Tlb.create () in
  let l4 = Phys_mem.alloc mem Phys_mem.Xen in
  let l3 = Phys_mem.alloc mem Phys_mem.Xen in
  let l2 = Phys_mem.alloc mem Phys_mem.Xen in
  let l1 = Phys_mem.alloc mem Phys_mem.Xen in
  let set table index mfn =
    Phys_mem.write_u64 mem
      (Int64.add (Addr.maddr_of_mfn table) (Int64.of_int (8 * index)))
      (Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw ])
  in
  set l4 0 l3;
  set l3 0 l2;
  set l2 0 l1;
  set l1 0 l1;
  set l4 1 l4;
  set l4 2 l4;
  (* a second L1 whose entry 0 maps the first one read-only *)
  let l1_ro = Phys_mem.alloc mem Phys_mem.Xen in
  set l2 1 l1_ro;
  Phys_mem.write_u64 mem (Addr.maddr_of_mfn l1_ro) (Pte.make ~mfn:l1 ~flags:[ Pte.Present ]);
  let remap ~slot ~window =
    ignore (Paging.walk_cached tlb mem ~cr3:l4 slot);
    ignore (Paging.walk_cached tlb mem ~cr3:l4 window);
    Paging.remap tlb mem ~cr3:l4 ~slot ~window
  in
  let va i = Addr.of_indices ~l4:i ~l3:i ~l2:i ~l1:i ~offset:0 in
  check_bool "slot and window on one page" true (Option.is_none (remap ~slot:(va 0) ~window:(va 0)));
  check_bool "the slot is an upper entry too" true
    (Option.is_none (remap ~slot:(Int64.add (va 2) 8L) ~window:(va 1)));
  check_bool "a read-only slot" true
    (Option.is_none
       (remap ~slot:(Addr.of_indices ~l4:0 ~l3:0 ~l2:1 ~l1:0 ~offset:0) ~window:(va 0)))

(* A throwaway address space of one L4, L3 and L2 whose eight PSE
   entries map 4,096 distinct pages; walking [n] of them through the
   TLB caches [n] leaves. *)
let fill_tlb (tb : Testbed.t) n =
  let mem = tb.Testbed.hv.Hv.mem in
  let l4 = Phys_mem.alloc mem Phys_mem.Xen in
  let l3 = Phys_mem.alloc mem Phys_mem.Xen in
  let l2 = Phys_mem.alloc mem Phys_mem.Xen in
  let table mfn = Pte.make ~mfn ~flags:[ Pte.Present; Pte.Rw ] in
  Phys_mem.write_u64 mem (Addr.maddr_of_mfn l4) (table l3);
  Phys_mem.write_u64 mem (Addr.maddr_of_mfn l3) (table l2);
  for j = 0 to 7 do
    Phys_mem.write_u64 mem
      (Int64.add (Addr.maddr_of_mfn l2) (Int64.of_int (8 * j)))
      (Pte.make ~mfn:0 ~flags:[ Pte.Present; Pte.Rw; Pte.Pse ])
  done;
  let tlb = Cpu.tlb tb.Testbed.hv.Hv.cpu in
  for i = 0 to n - 1 do
    ignore (Paging.walk_cached tlb mem ~cr3:l4 (Int64.of_int (i * Addr.page_size)))
  done

(* The slot's fill takes the TLB's last free entry, so the window's fill
   right after it flushes the whole cache, slot included: the next frame
   must go through the accessors again before the scan fast-forwards. *)
let test_scan_capacity_flush () =
  let run ~record =
    let tb = pooled_corpus_testbed ~record Version.V4_6 in
    ignore (Campaign.run ~tb (use_case "XSA-212-priv") Campaign.Injection Version.V4_6);
    let k = tb.Testbed.attacker and w = xsa212_window in
    Kernel.invlpg k w.Toolkit.slot;
    Kernel.invlpg k w.Toolkit.va;
    let tlb = Cpu.tlb tb.Testbed.hv.Hv.cpu in
    (* the default capacity: 4,096 cached pages *)
    fill_tlb tb (4095 - Paging.Tlb.size tlb);
    check_int "one free entry" 4095 (Paging.Tlb.size tlb);
    let flushes = (Paging.Tlb.stats tlb).Paging.Tlb.flushes in
    let w0 = Gc.minor_words () in
    let found = Toolkit.scan_all_vdso k w in
    let words = Gc.minor_words () -. w0 in
    check_int "the window's first fill flushes" (flushes + 1)
      (Paging.Tlb.stats tlb).Paging.Tlb.flushes;
    check_int "five vDSOs" 5 (match found with Ok l -> List.length l | Error _ -> 0);
    ((found, scan_state tb), words)
  in
  let fast, words = run ~record:false in
  let slow, _ = run ~record:true in
  check_bool "fast path = per-access path" true (fast = slow);
  (* the accessors allocate tens of words a frame, ~60k for the whole
     scan; fast-forwarded, only the frames after each match and the
     flush take them, and each set-up walks the window once (measured
     843) *)
  within_budget "scan after a capacity flush" 1000. words

(* --- Batching scheduler ---------------------------------------------------- *)

(* test/golden_random.ml pins every (seed, target set, version) summary
   of the randomized campaign as a tally and an MD5 over each trial's
   fields, captured from per-version runs on freshly booted testbeds. *)
let target_sets =
  [ ("intrusion", Random_campaign.intrusion_targets); ("all", Random_campaign.all_targets) ]

(* The line tools/goldgen digests: every field of a trial. *)
let trial_line (t : Random_campaign.trial) =
  Printf.sprintf "%d|%s|%Lx|%Lx|%s|%s" t.Random_campaign.index
    (Random_campaign.target_to_string t.Random_campaign.target)
    t.Random_campaign.t_addr t.Random_campaign.t_value
    (Random_campaign.outcome_to_string t.Random_campaign.outcome)
    (String.concat ";" (List.map Monitor.violation_to_string t.Random_campaign.t_violations))

let tally_string tally = String.concat "," (List.map (fun (_, n) -> string_of_int n) tally)

let golden seed set version =
  match
    List.find_opt
      (fun (s, n, v, _, _) -> s = seed && n = set && v = Version.to_string version)
      Golden_random.cases
  with
  | Some (_, _, _, tally, digest) -> (tally, digest)
  | None -> Alcotest.failf "no golden case for seed %Ld, %s, %s" seed set (Version.to_string version)

(* [check] runs once per (seed, target set) pair of the fixture. *)
let each_golden_pair check =
  List.iter
    (fun seed -> List.iter (fun (set, targets) -> check ~seed ~set ~targets) target_sets)
    [ 1L; 7L; 42L ]

let check_golden_summaries ~what ~seed ~set versions summaries =
  check_int (what ^ ": one summary per version") (List.length versions) (List.length summaries);
  List.iter2
    (fun version (s : Random_campaign.summary) ->
      let label = Printf.sprintf "%s, seed %Ld, %s, %s" what seed set (Version.to_string version) in
      let tally, digest = golden seed set version in
      check_bool (label ^ ": version") true (s.Random_campaign.s_version = version);
      check_bool (label ^ ": seed") true (s.Random_campaign.s_seed = seed);
      check_int (label ^ ": trials") Golden_random.trials (List.length s.Random_campaign.trials);
      Alcotest.(check string) (label ^ ": tally") tally (tally_string s.Random_campaign.tally);
      Alcotest.(check string)
        (label ^ ": trial digest") digest
        (Digest.to_hex
           (Digest.string (String.concat "\n" (List.map trial_line s.Random_campaign.trials)))))
    versions summaries

(* The flattened versions x trials queue must regroup into the golden
   per-version summaries whatever the worker count; the streaming
   variant must agree on the tallies it keeps. *)
let test_scheduler_matches_per_version () =
  let trials = Golden_random.trials and versions = Version.all in
  each_golden_pair (fun ~seed ~set ~targets ->
      List.iter
        (fun workers ->
          check_golden_summaries
            ~what:(Printf.sprintf "scheduler w%d" workers)
            ~seed ~set versions
            (Campaign_scheduler.run ~seed ~targets ~workers ~trials versions))
        [ 1; 3 ];
      List.iter2
        (fun version (st : Campaign_scheduler.stream_stats) ->
          Alcotest.(check string)
            (Printf.sprintf "streamed tally, seed %Ld, %s, %s" seed set (Version.to_string version))
            (fst (golden seed set version))
            (tally_string st.Campaign_scheduler.st_tally))
        versions
        (Campaign_scheduler.run_streamed ~seed ~targets ~workers:3 ~trials versions))

(* A pooled worker (forked from the warm template) and a freshly booted
   one must return equal trials. *)
let test_random_worker_pooled_equals_fresh () =
  List.iter
    (fun version ->
      let fresh = Random_campaign.make_worker ~pooled:false version in
      let pooled = Random_campaign.make_worker ~pooled:true version in
      for index = 0 to 199 do
        let run w = Random_campaign.run_one w ~seed:7L ~targets:Random_campaign.all_targets index in
        if run fresh <> run pooled then
          Alcotest.failf "trial %d on %s: pooled <> fresh" index (Version.to_string version)
      done)
    Version.all

(* --- Shard engine ---------------------------------------------------------- *)

exception Boom of int

let test_shard_exception_propagation () =
  match
    Shard.map_init ~workers:2
      ~init:(fun () -> ())
      (fun () i () -> if i = 5 then raise (Boom i) else i)
      (List.init 32 (fun _ -> ()))
  with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Boom 5 -> ()

let test_shard_fold_sum () =
  let sum w =
    Shard.fold_init ~workers:w ~n:1000 ~init:(fun () -> ()) ~f:(fun () i -> i) ~merge:( + ) 0
  in
  check_int "sequential fold" (999 * 1000 / 2) (sum 1);
  check_int "3-worker fold agrees" (sum 1) (sum 3)

let test_workers_of_string () =
  check_bool "auto resolves within [1,8]" true
    (match Shard.workers_of_string "auto" with Ok n -> n >= 1 && n <= 8 | Error _ -> false);
  check_bool "literal count" true (Shard.workers_of_string "3" = Ok 3);
  check_bool "zero rejected" true (Result.is_error (Shard.workers_of_string "0"));
  check_bool "negative rejected" true (Result.is_error (Shard.workers_of_string "-4"));
  check_bool "junk rejected" true (Result.is_error (Shard.workers_of_string "lots"));
  check_bool "empty rejected" true (Result.is_error (Shard.workers_of_string ""));
  check_bool "float rejected" true (Result.is_error (Shard.workers_of_string "2.5"));
  check_bool "whitespace rejected" true (Result.is_error (Shard.workers_of_string " 3"));
  (* every rejection names the flag the string came from *)
  List.iter
    (fun s ->
      match Shard.workers_of_string s with
      | Ok _ -> Alcotest.failf "%S unexpectedly accepted" s
      | Error msg ->
          check_bool
            (Printf.sprintf "error for %S names --workers" s)
            true
            (String.length msg >= 9 && String.sub msg 0 9 = "--workers"))
    [ "0"; "-1"; "junk"; "" ]

(* --- Sharding determinism ------------------------------------------------- *)

(* One version sharded over three workers: the golden summaries. *)
let test_random_campaign_shard_identical () =
  each_golden_pair (fun ~seed ~set ~targets ->
      check_golden_summaries ~what:"3-worker single-version run" ~seed ~set [ Version.V4_8 ]
        (Campaign_scheduler.run ~seed ~targets ~workers:3 ~trials:Golden_random.trials
           [ Version.V4_8 ]))

let test_run_matrix_shard_identical () =
  List.iter
    (fun (versions, shape) ->
      let seq = Campaign.run_matrix All.use_cases ~versions ~modes:[ Campaign.Injection ] in
      let sharded =
        Campaign.run_matrix ~workers:2 All.use_cases ~versions ~modes:[ Campaign.Injection ]
      in
      check_bool ("sequential = 2-worker matrix, " ^ shape) true (seq = sharded))
    [ ([ Version.V4_6 ], "4.6"); (Version.all, "all versions") ]

(* --- Phys_mem allocator --------------------------------------------------- *)

let test_alloc_lowest_free () =
  let mem = Phys_mem.create ~frames:16 in
  let a = Phys_mem.alloc mem Phys_mem.Xen in
  let b = Phys_mem.alloc mem Phys_mem.Xen in
  let c = Phys_mem.alloc mem (Phys_mem.Dom 1) in
  check_int "first" 0 a;
  check_int "second" 1 b;
  check_int "third" 2 c;
  Phys_mem.free mem b;
  check_int "freed slot is reused first" b (Phys_mem.alloc mem Phys_mem.Xen)

(* [lowest_bit] against the bit-by-bit scan it replaced *)
let lowest_bit_reference word =
  let rec go b = if word land (1 lsl b) <> 0 then b else go (b + 1) in
  go 0

let test_lowest_bit_single () =
  for b = 0 to Sys.int_size - 1 do
    check_int (Printf.sprintf "bit %d" b) b (Phys_mem.lowest_bit (1 lsl b))
  done

(* random words, shifted so the lowest set bit lands anywhere *)
let prop_lowest_bit =
  QCheck.Test.make ~name:"lowest_bit = linear scan" ~count:2000
    QCheck.(make ~print:string_of_int Gen.(map2 (fun w s -> w lsl s) int (int_bound 62)))
    (fun w -> w = 0 || Phys_mem.lowest_bit w = lowest_bit_reference w)

let test_alloc_zeroed_after_dirty_free () =
  let mem = Phys_mem.create ~frames:8 in
  let m = Phys_mem.alloc mem Phys_mem.Xen in
  Frame.set_u64 (Phys_mem.frame mem m) 0 0xDEAD_BEEFL;
  Phys_mem.free mem m;
  let m' = Phys_mem.alloc mem (Phys_mem.Dom 3) in
  check_int "same frame" m m';
  check_bool "scrubbed on reallocation" true
    (Frame.to_bytes (Phys_mem.frame_ro mem m') = Bytes.make 4096 '\000')

let test_free_frames_counter () =
  let mem = Phys_mem.create ~frames:12 in
  check_int "all free" 12 (Phys_mem.free_frames mem);
  let ms = Array.sub (Phys_mem.claim mem Phys_mem.Xen 5) 0 5 in
  check_int "after claim" 7 (Phys_mem.free_frames mem);
  Array.iter (Phys_mem.free mem) ms;
  check_int "after freeing" 12 (Phys_mem.free_frames mem)

(* [claim] takes the frames successive [alloc]s take, in order, across
   bitmap words and holes, and leaves the allocator where they do. *)
let test_claim_equals_allocs () =
  let holed () =
    let mem = Phys_mem.create ~frames:200 in
    for _ = 1 to 150 do
      ignore (Phys_mem.alloc mem Phys_mem.Xen)
    done;
    List.iter (Phys_mem.free mem) [ 3; 60; 61; 62; 100; 123; 124 ];
    mem
  in
  let a = holed () and b = holed () in
  let by_alloc = List.init 40 (fun _ -> Phys_mem.alloc a (Phys_mem.Dom 2)) in
  let by_claim = Array.to_list (Array.sub (Phys_mem.claim b (Phys_mem.Dom 2) 40) 0 40) in
  check_bool "same frames, same order" true (by_alloc = by_claim);
  check_int "same free count" (Phys_mem.free_frames a) (Phys_mem.free_frames b);
  check_int "the next alloc agrees" (Phys_mem.alloc a Phys_mem.Xen) (Phys_mem.alloc b Phys_mem.Xen);
  check_bool "claiming more than is free takes nothing" true
    (match Phys_mem.claim b Phys_mem.Xen 1000 with
    | _ -> false
    | exception Failure _ -> Phys_mem.free_frames b = Phys_mem.free_frames a)

(* --- Page_info touched set and checkpointing ------------------------------ *)

(* The touched set: every mutation marks its frame, refcount-only ones
   included, and a checkpoint or a restore clears it. *)
let test_page_info_touched () =
  let pages = Page_info.create ~frames:8 in
  let ck = Page_info.checkpoint pages in
  check_bool "nothing touched at the checkpoint" false (Page_info.any_touched pages);
  Page_info.get_page pages 3;
  check_bool "refcounting touches its frame" true (Page_info.touched pages 3);
  check_bool "and no other" false (Page_info.touched pages 4);
  (match Page_info.get_page_type pages 5 Page_info.PGT_l1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  check_bool "typing touches its frame" true (Page_info.touched pages 5);
  check_bool "outside the table: untouched" false (Page_info.touched pages 8);
  Page_info.restore pages ck;
  check_bool "a restore clears the set" false
    (Page_info.any_touched pages || Page_info.touched pages 3 || Page_info.touched pages 5);
  Page_info.get_page pages 6;
  ignore (Page_info.checkpoint pages);
  check_bool "a checkpoint clears the set" false (Page_info.any_touched pages)

let test_page_info_checkpoint_restore () =
  let pages = Page_info.create ~frames:8 in
  let ck = Page_info.checkpoint pages in
  (match Page_info.get_page_type pages 2 Page_info.PGT_l2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "typing a fresh frame");
  Page_info.set_type pages 5 Page_info.PGT_seg ~count:0;
  Page_info.restore pages ck;
  check_bool "type rolled back" true (Page_info.ptype pages 2 = Page_info.PGT_none);
  check_int "type count rolled back" 0 (Page_info.type_count pages 2);
  check_bool "out-of-band write rolled back" true (Page_info.ptype pages 5 = Page_info.PGT_none);
  check_bool "touched set cleared" false (Page_info.any_touched pages);
  check_bool "counts consistent" true (Page_info.counts_consistent pages)

(* The one place the model property below meets [Page_info]'s
   representation: a frame's five fields, and the two writes that only
   [Mm] makes (pin after a promotion, validate at its end). *)
module Pi_view = struct
  let fields pages mfn =
    Page_info.(ptype pages mfn, type_count pages mfn, ref_count pages mfn, validated pages mfn,
               pinned pages mfn)

  let pin pages mfn = Page_info.set_pinned pages mfn true
  let validate pages mfn = Page_info.set_validated pages mfn true
end

let pi_frames = 6
let pi_fresh = (Page_info.PGT_none, 0, 0, false, false)

let pi_ptypes =
  Page_info.[| PGT_none; PGT_writable; PGT_l1; PGT_l2; PGT_l3; PGT_l4; PGT_seg |]

(* (op, frame, ptype index) *)
let pi_ops =
  QCheck.(
    list_of_size (Gen.int_range 0 40)
      (triple (int_bound 6) (int_bound (pi_frames - 1)) (int_bound 6)))

(* One op on the real table and on the model: [Ok] or [Error] of the
   real call, the model's answer and its new fields. An underflow
   raises on both sides and changes nothing. *)
let pi_step pages model (op, mfn, p) =
  let ((ptype, tc, rc, validated, pinned) as f) = model.(mfn) in
  let raises g = match g () with () -> false | exception Invalid_argument _ -> true in
  let real, expect, f' =
    match op with
    | 0 ->
        Page_info.allocated pages mfn;
        (true, true, (Page_info.PGT_none, 0, 1, false, false))
    | 1 ->
        Page_info.get_page pages mfn;
        (true, true, (ptype, tc, rc + 1, validated, pinned))
    | 2 ->
        let ok = not (raises (fun () -> Page_info.put_page pages mfn)) in
        if rc <= 0 then (ok, false, f) else (ok, true, (ptype, tc, rc - 1, validated, pinned))
    | 3 ->
        let want = pi_ptypes.(p) in
        let ok = Page_info.get_page_type pages mfn want = Ok () in
        if ptype = want && tc > 0 then (ok, true, (ptype, tc + 1, rc, validated, pinned))
        else if tc = 0 then (ok, true, (want, 1, rc, false, pinned))
        else (ok, false, f)
    | 4 ->
        let ok = not (raises (fun () -> Page_info.put_page_type pages mfn)) in
        if tc <= 0 then (ok, false, f)
        else if tc = 1 then (ok, true, (ptype, 0, rc, false, false))
        else (ok, true, (ptype, tc - 1, rc, validated, pinned))
    | 5 ->
        Pi_view.pin pages mfn;
        (true, true, (ptype, tc, rc, validated, true))
    | _ ->
        Pi_view.validate pages mfn;
        (true, true, (ptype, tc, rc, true, pinned))
  in
  model.(mfn) <- f';
  real = expect && (f' = f || Page_info.touched pages mfn)

let pi_agrees pages model =
  let ok = ref true in
  for mfn = 0 to pi_frames - 1 do
    if Pi_view.fields pages mfn <> model.(mfn) then ok := false
  done;
  !ok
  && Page_info.counts_consistent pages
     = Array.for_all (fun (_, tc, rc, _, pinned) -> tc >= 0 && rc >= 0 && ((not pinned) || tc > 0)) model

(* Random refcounting, typing, pinning and validation agree field for
   field with a reference model after every op; a restore gives back
   the checkpoint exactly, and a table built from the checkpoint (after
   the ops, so the checkpoint is not aliased) equals it too. *)
let prop_page_info_model =
  QCheck.Test.make ~name:"page_info: fields = reference model" ~count:300
    (QCheck.pair pi_ops pi_ops) (fun (before, after) ->
      let pages = Page_info.create ~frames:pi_frames in
      let model = Array.make pi_frames pi_fresh in
      let run ops = List.for_all (fun op -> pi_step pages model op && pi_agrees pages model) ops in
      let fresh = pi_agrees pages model in
      let ran_before = run before in
      let ck = Page_info.checkpoint pages and at_ck = Array.copy model in
      let clean = not (Page_info.any_touched pages) in
      let ran_after = run after in
      let forked = pi_agrees (Page_info.of_checkpoint ck) at_ck in
      Page_info.restore pages ck;
      fresh && ran_before && clean && ran_after && forked
      && pi_agrees pages at_ck
      && not (Page_info.any_touched pages))

let () =
  Alcotest.run "perf_engine"
    [
      ( "tlb",
        [
          Alcotest.test_case "stale without invlpg" `Quick test_stale_tlb_without_invlpg;
          Alcotest.test_case "coherent across reset" `Quick test_tlb_survives_reset;
          Alcotest.test_case "unpackable cr3 rejected" `Quick test_tlb_unpackable_cr3;
          Alcotest.test_case "capacity overflow flushes once" `Quick test_tlb_capacity_flush;
        ]
        @ qsuite [ prop_tlb_transparent_under_invalidation; prop_tlb_packed_key ]
        @ qsuite_seeded 21 [ prop_tlb_reference_model ] );
      ( "reset",
        [
          Alcotest.test_case "campaign rows: reset = create" `Quick
            test_reset_equals_create_campaign;
          Alcotest.test_case "snapshots: reset = create" `Quick test_reset_equals_create_snapshot;
        ] );
      ( "scan_cache",
        qsuite [ prop_scan_cache_transparent ]
        @ qsuite_seeded 14 [ prop_xen_testbed_cache; prop_kvm_testbed_cache ]
        @ [
            Alcotest.test_case "corpus cells = uncached oracle" `Quick test_corpus_cache_oracle;
            Alcotest.test_case "fork isolation" `Quick test_fork_cache_isolation;
            Alcotest.test_case "memo anchor and bypass" `Quick test_scan_memo_anchor;
            Alcotest.test_case "nodes: forged first snapshot" `Quick
              test_nodes_first_snapshot_forged;
            Alcotest.test_case "nodes: dirty L1 among clean siblings" `Quick
              test_nodes_dirty_sibling;
            Alcotest.test_case "nodes: PSE entries" `Quick test_nodes_pse;
            Alcotest.test_case "nodes: one table at two VA prefixes" `Quick
              test_nodes_two_prefixes;
            Alcotest.test_case "nodes: types touched, nothing dirty" `Quick
              test_nodes_types_only;
            Alcotest.test_case "nodes: bounded over 1,000 trials" `Quick test_nodes_bounded;
          ] );
      ( "pool",
        [
          Alcotest.test_case "campaign rows: pooled = fresh (xen)" `Quick
            test_pooled_equals_fresh_campaign;
          Alcotest.test_case "campaign rows: pooled = fresh (kvm)" `Quick
            test_pooled_equals_fresh_kvm;
          Alcotest.test_case "campaign rows: pooled = fresh (4 domains, loaded)" `Quick
            test_pooled_equals_fresh_multidomain;
          Alcotest.test_case "interleaved scans on a fork" `Quick test_pooled_interleaved_scans;
          Alcotest.test_case "provenance on a fork" `Quick test_pooled_provenance;
          Alcotest.test_case "scan-cache anchoring on a fork" `Quick
            test_fork_scan_cache_anchoring;
          Alcotest.test_case "random trials: pooled = fresh" `Quick
            test_random_worker_pooled_equals_fresh;
        ] );
      ( "cow_fork",
        [
          Alcotest.test_case "template isolation" `Quick test_fork_template_isolation;
          Alcotest.test_case "frozen template immutable" `Quick test_frozen_template_immutable;
          Alcotest.test_case "fresh memory shares one zero frame" `Quick test_fresh_memory_shared;
          Alcotest.test_case "zero frame stays zero" `Quick test_zero_frame_intact;
          Alcotest.test_case "reset re-shares every frame" `Quick test_reset_reshares;
        ]
        @ qsuite [ prop_phys_mem_reset_fork; prop_phys_mem_reset_captured ] );
      ( "in_place",
        [
          Alcotest.test_case "pooled testbed" `Quick
            (test_restore_in_place (fun () -> Testbed.create_pooled Version.V4_8));
          Alcotest.test_case "fresh testbed" `Quick
            (test_restore_in_place (fun () -> Testbed.create Version.V4_8));
          Alcotest.test_case "destroyed domain" `Quick test_restore_destroyed_domain;
          Alcotest.test_case "klog lines" `Quick test_klog_lines;
        ]
        @ qsuite_seeded 23
            [ prop_reset_in_place; prop_phys_mem_recycles; prop_domain_restore_any_checkpoint ] );
      ( "counters",
        Alcotest.test_case "kernel reset keeps an unwritten filesystem" `Quick
          test_kernel_reset_fs
        :: qsuite_seeded 39 [ prop_domain_counters; prop_testbed_counters ] );
      ( "hooks",
        [
          Alcotest.test_case "balloon trial (pooled)" `Quick
            (test_balloon_trial (fun () -> Testbed.create_pooled Version.V4_8));
          Alcotest.test_case "balloon trial (fresh)" `Quick
            (test_balloon_trial (fun () -> Testbed.create Version.V4_8));
          Alcotest.test_case "exhaustion trial (pooled)" `Quick
            (test_exhaust_trial (fun () -> Testbed.create_pooled Version.V4_8));
          Alcotest.test_case "exhaustion trial (fresh)" `Quick
            (test_exhaust_trial (fun () -> Testbed.create Version.V4_8));
        ] );
      ( "alloc",
        [
          Alcotest.test_case "reset words" `Quick test_reset_words;
          Alcotest.test_case "run_one words" `Quick (test_run_one_words true);
          Alcotest.test_case "quiet tick_all words" `Quick test_quiet_tick_all_words;
          Alcotest.test_case "campaign words (xen)" `Quick test_campaign_words_xen;
          Alcotest.test_case "campaign words (kvm)" `Quick test_campaign_words_kvm;
          Alcotest.test_case "read_u64 hit words" `Quick test_read_hit_words;
          Alcotest.test_case "write_u64 hit words" `Quick test_write_hit_words;
          Alcotest.test_case "invlpg+read words" `Quick test_invlpg_read_words;
          Alcotest.test_case "XSA-212-priv words" `Quick test_xsa212_priv_words;
          Alcotest.test_case "fast-forwarded frame words" `Quick test_remap_words;
          Alcotest.test_case "snapshot words" `Quick test_snapshot_words;
          Alcotest.test_case "exhaust_memory words" `Quick test_exhaust_memory_words;
          (* measured 3,505 and 674 *)
          Alcotest.test_case "balloon trial words" `Quick
            (test_hook_trial_words balloon_hook 4025.);
          Alcotest.test_case "exhaustion trial words" `Quick
            (test_hook_trial_words exhaust_hook 775.);
          Alcotest.test_case "loaded reset words" `Quick test_loaded_reset_words;
          Alcotest.test_case "trial storage words" `Quick test_trial_storage_words;
          Alcotest.test_case "run_one words (booted worker)" `Quick (test_run_one_words false);
          Alcotest.test_case "boot and fork words" `Quick test_boot_fork_words;
        ] );
      ( "remap",
        [
          Alcotest.test_case "fast path = per-access path (cells)" `Quick
            test_scan_cells_equivalent;
          Alcotest.test_case "slot takes the last free TLB entry" `Quick test_scan_capacity_flush;
          Alcotest.test_case "refusals" `Quick test_remap_refusals;
          Alcotest.test_case "self-mapping windows" `Quick test_remap_self_maps;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "flattened queue = per-version runs" `Quick
            test_scheduler_matches_per_version;
        ] );
      ( "shard",
        [
          Alcotest.test_case "exception propagation" `Quick test_shard_exception_propagation;
          Alcotest.test_case "streaming fold" `Quick test_shard_fold_sum;
          Alcotest.test_case "workers_of_string" `Quick test_workers_of_string;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "random campaign" `Quick test_random_campaign_shard_identical;
          Alcotest.test_case "run_matrix" `Quick test_run_matrix_shard_identical;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "lowest free first" `Quick test_alloc_lowest_free;
          Alcotest.test_case "lowest_bit single bits" `Quick test_lowest_bit_single;
          Alcotest.test_case "zeroed after dirty free" `Quick test_alloc_zeroed_after_dirty_free;
          Alcotest.test_case "free counter" `Quick test_free_frames_counter;
          Alcotest.test_case "claim = successive allocs" `Quick test_claim_equals_allocs;
        ]
        @ qsuite [ prop_lowest_bit ] );
      ( "page_info",
        [
          Alcotest.test_case "touched set" `Quick test_page_info_touched;
          Alcotest.test_case "checkpoint/restore" `Quick test_page_info_checkpoint_restore;
        ]
        @ qsuite_seeded 37 [ prop_page_info_model ] );
    ]
