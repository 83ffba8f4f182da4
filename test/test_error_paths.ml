(* Error-path coverage: the failure branches a robust hypervisor must
   take — rollbacks, partial completions, boundary conditions. *)

open Ii_xen
open Ii_guest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let errno_t : Errno.t Alcotest.testable = Alcotest.testable (fun ppf e -> Errno.pp ppf e) ( = )

let built () =
  let hv = Hv.boot ~version:Version.V4_6 ~frames:1024 in
  let dom0 = Builder.create_domain hv ~name:"dom0" ~privileged:true ~pages:64 in
  let guest = Builder.create_domain hv ~name:"guest" ~privileged:false ~pages:64 in
  (hv, dom0, guest)

let kva = Domain.kernel_vaddr_of_pfn
let entry_ptr mfn index = Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int (8 * index))

let table_at hv dom ~level va =
  match Paging.walk hv.Hv.mem ~cr3:dom.Domain.l4_mfn va with
  | Ok tr -> (List.nth tr.Paging.path (4 - level)).Paging.table_mfn
  | Error _ -> Alcotest.fail "walk"

(* --- promote rollback ---------------------------------------------------- *)

let test_promote_rollback_restores_counts () =
  let hv, _, guest = built () in
  (* build a candidate L1 page with one good entry and one bad entry
     (pointing at a Xen frame) in a data page the guest owns *)
  let cand_mfn = Option.get (Domain.mfn_of_pfn guest 10) in
  (* drop its current accounting: unmap from kernel space *)
  ignore (Mm.update_va_mapping hv guest ~va:(kva 10) Pte.none);
  let frame = Phys_mem.frame hv.Hv.mem cand_mfn in
  let good_target = Option.get (Domain.mfn_of_pfn guest 11) in
  ignore (Mm.update_va_mapping hv guest ~va:(kva 11) Pte.none);
  let refs_before = Page_info.ref_count hv.Hv.pages good_target in
  Frame.set_entry frame 0 (Pte.make ~mfn:good_target ~flags:[ Pte.Present; Pte.User ]);
  Frame.set_entry frame 1 (Pte.make ~mfn:hv.Hv.idt_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ]);
  Alcotest.check errno_t "promotion fails on the bad entry" Errno.EPERM
    (Result.get_error (Mm.promote hv guest ~level:1 cand_mfn));
  (* rollback: no residual type, and the good target's ref restored *)
  check_int "type cleared" 0 (Page_info.type_count hv.Hv.pages cand_mfn);
  check_bool "untyped" true (Page_info.ptype hv.Hv.pages cand_mfn = Page_info.PGT_none);
  check_int "good target refs restored" refs_before
    (Page_info.ref_count hv.Hv.pages good_target);
  (* fixing the bad entry lets promotion succeed *)
  Frame.set_entry frame 1 Pte.none;
  check_bool "promotes after fix" true (Result.is_ok (Mm.promote hv guest ~level:1 cand_mfn));
  check_bool "counts consistent" true (Page_info.counts_consistent hv.Hv.pages)

let test_promote_wrong_owner () =
  let hv, dom0, guest = built () in
  (* a mapped foreign page is refused as busy before ownership is even
     considered; an unmapped one hits the ownership check proper *)
  let dom0_page = Option.get (Domain.mfn_of_pfn dom0 10) in
  Alcotest.check errno_t "mapped foreign frame busy" Errno.EBUSY
    (Result.get_error (Mm.promote hv guest ~level:1 dom0_page));
  ignore (Mm.update_va_mapping hv dom0 ~va:(kva 10) Pte.none);
  Alcotest.check errno_t "unmapped foreign frame" Errno.EPERM
    (Result.get_error (Mm.promote hv guest ~level:1 dom0_page))

let test_promote_busy_type () =
  let hv, _, guest = built () in
  (* a mapped-writable data page cannot become a page table *)
  let mapped = Option.get (Domain.mfn_of_pfn guest 10) in
  Alcotest.check errno_t "writable type busy" Errno.EBUSY
    (Result.get_error (Mm.promote hv guest ~level:1 mapped))

(* --- mmu_update partial completion ----------------------------------------- *)

let test_mmu_update_stops_at_first_failure () =
  let hv, _, guest = built () in
  let l1 = table_at hv guest ~level:1 (kva 0) in
  let good = (entry_ptr l1 9, Pte.none) in
  let bad =
    ( entry_ptr l1 10,
      Pte.make ~mfn:hv.Hv.idt_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] )
  in
  let never = (entry_ptr l1 11, Pte.none) in
  Alcotest.check errno_t "fails on the bad request" Errno.EPERM
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ good; bad; never ]));
  (* the first request was applied; the third was not *)
  check_bool "first applied" true (Result.is_error
    (Cpu.read_u64 hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:guest.Domain.l4_mfn (kva 9)));
  check_bool "third untouched" true (Result.is_ok
    (Cpu.read_u64 hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:guest.Domain.l4_mfn (kva 11)))

let test_mmu_update_bad_command_bits () =
  let hv, _, guest = built () in
  let l1 = table_at hv guest ~level:1 (kva 0) in
  let ptr = Int64.logor (entry_ptr l1 9) 2L (* MMU_MACHPHYS_UPDATE: unsupported *) in
  Alcotest.check errno_t "unsupported command" Errno.ENOSYS
    (Result.get_error (Mm.mmu_update hv guest ~updates:[ (ptr, Pte.none) ]))

let test_decrease_reservation_stops_at_error () =
  let hv, _, guest = built () in
  ignore (Mm.update_va_mapping hv guest ~va:(kva 9) Pte.none);
  (* pfn 9 releasable, pfn 10 still mapped -> EBUSY after the first *)
  Alcotest.check errno_t "stops at busy page" Errno.EBUSY
    (Result.get_error (Mm.decrease_reservation hv guest [ 9; 10 ]));
  check_bool "first actually released" true (Domain.mfn_of_pfn guest 9 = None);
  check_bool "second kept" true (Domain.mfn_of_pfn guest 10 <> None)

let test_update_va_mapping_superpage_leaf () =
  let hv, _, guest = built () in
  (* install a PSE mapping (4.6 accepts), then try to update "the L1"
     beneath it: there is none, the leaf is the superpage *)
  let l2 = table_at hv guest ~level:2 (kva 0) in
  let l1 = table_at hv guest ~level:1 (kva 0) in
  let pse = Pte.make ~mfn:l1 ~flags:[ Pte.Present; Pte.Rw; Pte.User; Pte.Pse ] in
  check_bool "pse installed" true (Mm.mmu_update hv guest ~updates:[ (entry_ptr l2 9, pse) ] = Ok 1);
  let va_in_superpage = Int64.add Layout.guest_kernel_base (Int64.of_int (9 * Addr.superpage_size)) in
  Alcotest.check errno_t "no entry-wise update through a superpage" Errno.EINVAL
    (Result.get_error (Mm.update_va_mapping hv guest ~va:va_in_superpage Pte.none))

(* --- exchange partial effects ------------------------------------------------ *)

let test_exchange_stops_mid_list () =
  let hv, _, guest = built () in
  ignore (Mm.update_va_mapping hv guest ~va:(kva 9) Pte.none);
  (* second pfn still mapped: the eager check fails it after the first
     extent has already been exchanged — a real partial effect *)
  match
    Memory_exchange.exchange hv guest
      { Memory_exchange.in_pfns = [ 9; 10 ]; out_extent_start = kva 5 }
  with
  | Error Errno.EBUSY -> check_bool "first extent re-populated" true (Domain.mfn_of_pfn guest 9 <> None)
  | Error e -> Alcotest.fail (Errno.to_string e)
  | Ok _ -> Alcotest.fail "expected failure on the second extent"

let test_exchange_empty_list () =
  let hv, _, guest = built () in
  match
    Memory_exchange.exchange hv guest { Memory_exchange.in_pfns = []; out_extent_start = kva 5 }
  with
  | Ok { Memory_exchange.nr_exchanged = 0; new_mfns = [] } -> ()
  | _ -> Alcotest.fail "empty exchange is a no-op"

(* --- grant/xenstore boundaries ----------------------------------------------- *)

let test_grant_wire_out_of_range_gref () =
  let hv, dom0, guest = built () in
  ignore
    (Hypercall.dispatch hv guest
       (Hypercall.Grant_table_op (Hypercall.Gnttab_setup_table { nr_frames = 1 })));
  (* gref beyond the single shared frame *)
  Alcotest.check errno_t "gref beyond shared frames" Errno.EINVAL
    (Result.get_error
       (Grant_table.map_memory guest.Domain.grant ~mem:hv.Hv.mem ~granter:guest.Domain.id
          ~mapper:dom0.Domain.id ~gref:9999
          ~gfn_to_mfn:(fun _ -> None)));
  Alcotest.check errno_t "negative gref" Errno.EINVAL
    (Result.get_error
       (Grant_table.map_memory guest.Domain.grant ~mem:hv.Hv.mem ~granter:guest.Domain.id
          ~mapper:dom0.Domain.id ~gref:(-1)
          ~gfn_to_mfn:(fun _ -> None)))

let test_grant_wire_bad_gfn () =
  let hv, dom0, guest = built () in
  ignore
    (Hypercall.dispatch hv guest
       (Hypercall.Grant_table_op (Hypercall.Gnttab_setup_table { nr_frames = 1 })));
  let frame_mfn = List.hd (Grant_table.shared_frames guest.Domain.grant) in
  Grant_table.Wire.write (Phys_mem.frame hv.Hv.mem frame_mfn) 0
    {
      Grant_table.Wire.w_flags = Grant_table.Wire.gtf_permit_access;
      w_domid = dom0.Domain.id;
      w_gfn = 99999;
    };
  Alcotest.check errno_t "unpopulated gfn" Errno.EINVAL
    (Result.get_error
       (Grant_table.map_memory guest.Domain.grant ~mem:hv.Hv.mem ~granter:guest.Domain.id
          ~mapper:dom0.Domain.id ~gref:0
          ~gfn_to_mfn:(fun gfn -> Domain.mfn_of_pfn guest gfn)))

let test_xenstore_boundaries () =
  let xs = Xenstore.create () in
  (* a guest cannot write at its subtree's parent or a sibling's *)
  check_bool "parent refused" true
    (Xenstore.write xs ~caller:3 "/local/domain/3" "x" = Error Errno.EACCES);
  check_bool "prefix trick refused" true
    (Xenstore.write xs ~caller:3 "/local/domain/33/name" "x" = Error Errno.EACCES);
  check_bool "own deep path ok" true
    (Xenstore.write xs ~caller:3 "/local/domain/3/a/b/c/d" "x" = Ok ())

(* --- injector boundaries ------------------------------------------------------ *)

let test_injector_cross_frame_and_limits () =
  let tb = Testbed.create Version.V4_8 in
  Ii_core.Injector.install tb.Testbed.hv;
  let k = tb.Testbed.attacker in
  (* a ranged physical write across a frame boundary *)
  let mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom k) 5) in
  let addr = Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int (Addr.page_size - 4)) in
  check_bool "cross-frame write" true
    (Ii_core.Injector.write k ~addr ~action:Ii_core.Injector.Arbitrary_write_physical
       (Bytes.of_string "ABCDEFGH")
    = Ok ());
  (match Ii_core.Injector.read k ~addr ~action:Ii_core.Injector.Arbitrary_read_physical ~len:8 with
  | Ok b -> Alcotest.(check string) "cross-frame read" "ABCDEFGH" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "read");
  (* zero-length and end-of-memory are refused *)
  check_bool "zero length" true
    (Ii_core.Injector.read k ~addr ~action:Ii_core.Injector.Arbitrary_read_physical ~len:0
    = Error Errno.EINVAL);
  let last = Addr.maddr_of_mfn (Phys_mem.total_frames tb.Testbed.hv.Hv.mem) in
  check_bool "end of ram" true
    (Ii_core.Injector.write_u64 k ~addr:last ~action:Ii_core.Injector.Arbitrary_write_physical 0L
    = Error Errno.EINVAL)

(* --- crash-state behaviour ----------------------------------------------------- *)

let test_everything_refuses_after_crash () =
  let hv, _, guest = built () in
  Hv.panic hv ~reason:"test" ~dump:[];
  Alcotest.check errno_t "mmu_update" Errno.EINVAL
    (Result.get_error (Mm.mmu_update hv guest ~updates:[]));
  Alcotest.check errno_t "exchange" Errno.EINVAL
    (Result.get_error
       (Memory_exchange.exchange hv guest { Memory_exchange.in_pfns = []; out_extent_start = 0L }));
  check_bool "sched idles" true (Hv.sched_tick hv = Sched.Idle)

let () =
  Alcotest.run "error_paths"
    [
      ( "promote",
        [
          Alcotest.test_case "rollback restores counts" `Quick test_promote_rollback_restores_counts;
          Alcotest.test_case "wrong owner" `Quick test_promote_wrong_owner;
          Alcotest.test_case "busy type" `Quick test_promote_busy_type;
        ] );
      ( "mmu_update",
        [
          Alcotest.test_case "stops at first failure" `Quick test_mmu_update_stops_at_first_failure;
          Alcotest.test_case "bad command bits" `Quick test_mmu_update_bad_command_bits;
          Alcotest.test_case "decrease stops at error" `Quick test_decrease_reservation_stops_at_error;
          Alcotest.test_case "no update through superpage" `Quick test_update_va_mapping_superpage_leaf;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "stops mid-list" `Quick test_exchange_stops_mid_list;
          Alcotest.test_case "empty list" `Quick test_exchange_empty_list;
        ] );
      ( "grant+xenstore",
        [
          Alcotest.test_case "gref out of range" `Quick test_grant_wire_out_of_range_gref;
          Alcotest.test_case "bad gfn" `Quick test_grant_wire_bad_gfn;
          Alcotest.test_case "xenstore boundaries" `Quick test_xenstore_boundaries;
        ] );
      ( "injector",
        [ Alcotest.test_case "cross-frame and limits" `Quick test_injector_cross_frame_and_limits ] );
      ( "crash",
        [ Alcotest.test_case "everything refuses after crash" `Quick test_everything_refuses_after_crash ] );
    ]
