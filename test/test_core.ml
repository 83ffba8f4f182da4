(* Tests for the paper's core contribution: taxonomy, intrusion models,
   erroneous-state audits, the injector, the monitor, the AVI chain and
   the weird-machine abstraction. *)

open Ii_xen
open Ii_guest
open Ii_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

module Af = Abusive_functionality

(* --- Abusive_functionality ------------------------------------------------ *)

let test_af_taxonomy_shape () =
  check_int "sixteen functionalities" 16 (List.length Af.all);
  check_int "four classes" 4 (List.length Af.cls_all);
  List.iter
    (fun cls ->
      check_bool "class non-empty" true (List.exists (fun af -> Af.cls_of af = cls) Af.all))
    Af.cls_all

let test_af_paper_totals () =
  check_int "total classifications" 108 (List.fold_left (fun a af -> a + Af.paper_count af) 0 Af.all);
  List.iter
    (fun cls ->
      let sum =
        List.fold_left (fun a af -> if Af.cls_of af = cls then a + Af.paper_count af else a) 0 Af.all
      in
      check_int (Af.cls_to_string cls) (Af.paper_class_total cls) sum)
    Af.cls_all;
  check_int "memory access" 35 (Af.paper_class_total Af.Memory_access);
  check_int "memory management" 40 (Af.paper_class_total Af.Memory_management);
  check_int "exceptional" 11 (Af.paper_class_total Af.Exceptional_conditions);
  check_int "non-memory" 22 (Af.paper_class_total Af.Non_memory_related)

let test_af_string_roundtrip () =
  List.iter
    (fun af ->
      match Af.of_string (Af.to_string af) with
      | Some af' -> check_bool "roundtrip" true (af = af')
      | None -> Alcotest.fail "of_string")
    Af.all;
  check_bool "unknown" true (Af.of_string "Telepathy" = None)

let test_af_paper_rows () =
  (* the counts printed verbatim in the paper's Table I *)
  check_int "keep page access" 11 (Af.paper_count Af.Keep_page_access);
  check_int "corrupt vmm" 4 (Af.paper_count Af.Corrupt_virtual_memory_mapping);
  check_int "corrupt page ref" 4 (Af.paper_count Af.Corrupt_page_reference);
  check_int "fail mapping" 2 (Af.paper_count Af.Fail_memory_mapping);
  check_int "fatal" 6 (Af.paper_count Af.Induce_fatal_exception);
  check_int "mem exc" 5 (Af.paper_count Af.Induce_memory_exception);
  check_int "hang" 20 (Af.paper_count Af.Induce_hang_state);
  check_int "irq" 2 (Af.paper_count Af.Uncontrolled_interrupt_requests)

(* --- Intrusion_model -------------------------------------------------------- *)

let im_a =
  Intrusion_model.make ~name:"A" ~source:Intrusion_model.Unprivileged_guest
    ~interface:(Intrusion_model.Hypercall_interface "mmu_update")
    ~target:Intrusion_model.Memory_management_component
    ~functionality:Af.Guest_writable_page_table_entry "test"

let test_im_compatibility () =
  let im_b =
    Intrusion_model.make ~name:"B" ~source:Intrusion_model.Unprivileged_guest
      ~interface:(Intrusion_model.Hypercall_interface "memory_exchange")
      ~target:Intrusion_model.Memory_management_component
      ~functionality:Af.Guest_writable_page_table_entry "other interface, same abuse"
  in
  check_bool "same functionality compatible" true (Intrusion_model.compatible im_a im_b);
  let im_c = { im_b with Intrusion_model.functionality = Af.Read_unauthorized_memory } in
  check_bool "different functionality" false (Intrusion_model.compatible im_a im_c);
  let im_d = { im_b with Intrusion_model.source = Intrusion_model.Privileged_guest } in
  check_bool "different source" false (Intrusion_model.compatible im_a im_d)

let test_im_render () =
  let s = Format.asprintf "%a" Intrusion_model.pp im_a in
  check_bool "mentions name" true (String.length s > 0 && s.[0] = 'A');
  let long = Format.asprintf "%a" Intrusion_model.pp_long im_a in
  check_bool "long mentions source" true
    (let rec contains i =
       i + 12 <= String.length long && (String.sub long i 12 = "unprivileged" || contains (i + 1))
     in
     contains 0)

(* --- Erroneous_state audits -------------------------------------------------- *)

let tb () = Testbed.create Version.V4_6

let test_audit_idt () =
  let tb = tb () in
  let hv = tb.Testbed.hv in
  let spec = Erroneous_state.Idt_gate_corrupted { vector = Idt.vector_page_fault } in
  check_bool "clean" false (Erroneous_state.audit hv spec).Erroneous_state.holds;
  Idt.write_gate hv.Hv.mem hv.Hv.idt_mfn Idt.vector_page_fault
    { Idt.handler = 0x123L; selector = 0xe008; gate_present = true };
  let audit = Erroneous_state.audit hv spec in
  check_bool "corrupted detected" true audit.Erroneous_state.holds;
  check_bool "evidence" true (audit.Erroneous_state.evidence <> [])

let test_audit_l4_selfmap () =
  let tb = tb () in
  let hv = tb.Testbed.hv in
  let l4 = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn in
  let slot = Layout.xen_extra_slot in
  let spec = Erroneous_state.L4_selfmap_writable { l4_mfn = l4; slot } in
  check_bool "clean" false (Erroneous_state.audit hv spec).Erroneous_state.holds;
  Frame.set_entry (Phys_mem.frame hv.Hv.mem l4) slot
    (Pte.make ~mfn:l4 ~flags:[ Pte.Present; Pte.User ]);
  check_bool "ro self-map not enough" false (Erroneous_state.audit hv spec).Erroneous_state.holds;
  Frame.set_entry (Phys_mem.frame hv.Hv.mem l4) slot
    (Pte.make ~mfn:l4 ~flags:[ Pte.Present; Pte.User; Pte.Rw ]);
  check_bool "rw self-map detected" true (Erroneous_state.audit hv spec).Erroneous_state.holds

let test_audit_page_kept () =
  let tb = tb () in
  let hv = tb.Testbed.hv in
  let attacker = Kernel.dom tb.Testbed.attacker in
  let victim_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom tb.Testbed.victim) 5) in
  let spec = Erroneous_state.Page_kept_after_release { domid = attacker.Domain.id; mfn = victim_mfn } in
  check_bool "clean" false (Erroneous_state.audit hv spec).Erroneous_state.holds;
  (* plant a forged leaf mapping of the victim frame in the attacker's L1 *)
  let l1 =
    match Paging.walk hv.Hv.mem ~cr3:attacker.Domain.l4_mfn (Domain.kernel_vaddr_of_pfn 0) with
    | Ok tr -> (List.nth tr.Paging.path 3).Paging.table_mfn
    | Error _ -> Alcotest.fail "walk"
  in
  Frame.set_entry (Phys_mem.frame hv.Hv.mem l1) 200
    (Pte.make ~mfn:victim_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ]);
  check_bool "kept mapping detected" true (Erroneous_state.audit hv spec).Erroneous_state.holds

let test_audit_interrupt_storm () =
  let tb = tb () in
  let hv = tb.Testbed.hv in
  let dom = Kernel.dom tb.Testbed.victim in
  let spec = Erroneous_state.Interrupt_storm { domid = dom.Domain.id; min_pending = 10 } in
  check_bool "clean" false (Erroneous_state.audit hv spec).Erroneous_state.holds;
  ignore (Event_channel.force_pending_all dom.Domain.events);
  check_bool "storm detected" true (Erroneous_state.audit hv spec).Erroneous_state.holds

let test_walk_evidence () =
  let tb = tb () in
  let lines =
    Erroneous_state.walk_evidence tb.Testbed.hv
      ~cr3:(Kernel.dom tb.Testbed.attacker).Domain.l4_mfn (Domain.kernel_vaddr_of_pfn 0)
  in
  check_int "four levels" 4 (List.length lines);
  check_bool "describes L4" true
    (match lines with l :: _ -> String.length l > 2 && String.sub l 0 2 = "L4" | [] -> false)

(* --- Injector ------------------------------------------------------------------ *)

let itb () =
  let tb = tb () in
  Injector.install tb.Testbed.hv;
  tb

let test_injector_install () =
  let tb = tb () in
  check_bool "absent" false (Injector.installed tb.Testbed.hv);
  Injector.install tb.Testbed.hv;
  check_bool "installed" true (Injector.installed tb.Testbed.hv);
  Injector.install tb.Testbed.hv;
  check_bool "idempotent" true (Injector.installed tb.Testbed.hv);
  check_bool "logged" true
    (List.exists
       (fun l ->
         let rec contains i =
           i + 18 <= String.length l && (String.sub l i 18 = "intrusion-injector" || contains (i + 1))
         in
         contains 0)
       (Hv.console_lines tb.Testbed.hv))

let test_injector_not_installed_enosys () =
  let tb = tb () in
  let k = tb.Testbed.attacker in
  check_int "enosys" (-38)
    (Kernel.hypercall_rc k
       (Hypercall.Raw { number = Injector.hypercall_number; args = [| 0L; 0L; 8L; 1L |] }))

let test_injector_write_read_linear () =
  let tb = itb () in
  let k = tb.Testbed.attacker in
  let target_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom tb.Testbed.victim) 5) in
  let addr = Layout.directmap_of_maddr (Addr.maddr_of_mfn target_mfn) in
  check_bool "write" true
    (Injector.write_u64 k ~addr ~action:Injector.Arbitrary_write_linear 0xC0FFEEL = Ok ());
  check_bool "phys landed" true
    (Phys_mem.read_u64 tb.Testbed.hv.Hv.mem (Addr.maddr_of_mfn target_mfn) = 0xC0FFEEL);
  check_bool "read back" true
    (Injector.read_u64 k ~addr ~action:Injector.Arbitrary_read_linear = Ok 0xC0FFEEL)

let test_injector_physical_mode () =
  let tb = itb () in
  let k = tb.Testbed.attacker in
  let target_mfn = Option.get (Domain.mfn_of_pfn (Kernel.dom tb.Testbed.victim) 6) in
  let addr = Addr.maddr_of_mfn target_mfn in
  check_bool "phys write" true
    (Injector.write_u64 k ~addr ~action:Injector.Arbitrary_write_physical 0xFEEDL = Ok ());
  check_bool "phys read" true
    (Injector.read_u64 k ~addr ~action:Injector.Arbitrary_read_physical = Ok 0xFEEDL)

let test_injector_rejects_bad_targets () =
  let tb = itb () in
  let k = tb.Testbed.attacker in
  check_bool "guest va not linear" true
    (Injector.write_u64 k ~addr:(Domain.kernel_vaddr_of_pfn 5)
       ~action:Injector.Arbitrary_write_linear 0L
    = Error Errno.EINVAL);
  check_bool "out of range physical" true
    (Injector.write_u64 k ~addr:0x7FFF_FFFF_0000L ~action:Injector.Arbitrary_write_physical 0L
    = Error Errno.EINVAL)

let test_injector_action_codes () =
  List.iter
    (fun a ->
      match Injector.action_of_code (Injector.action_code a) with
      | Some a' -> check_bool "roundtrip" true (a = a')
      | None -> Alcotest.fail "action code")
    [
      Injector.Arbitrary_read_linear;
      Injector.Arbitrary_write_linear;
      Injector.Arbitrary_read_physical;
      Injector.Arbitrary_write_physical;
    ];
  check_bool "bad code" true (Injector.action_of_code 9L = None)

let test_injector_works_on_all_versions () =
  List.iter
    (fun version ->
      let tb = Testbed.create version in
      Injector.install tb.Testbed.hv;
      let k = tb.Testbed.attacker in
      let addr = Layout.directmap_of_maddr (Addr.maddr_of_mfn tb.Testbed.hv.Hv.idt_mfn) in
      check_bool
        (Printf.sprintf "injects on %s" (Version.to_string version))
        true
        (Injector.write_u64 k ~addr ~action:Injector.Arbitrary_write_linear 0xBADL = Ok ()))
    Version.all

let prop_injector_write_read_identity =
  QCheck.Test.make ~name:"injector write/read identity" ~count:50
    QCheck.(pair (int_bound 400) (map Int64.of_int int))
    (fun (off, v) ->
      let tb = Testbed.create Version.V4_8 in
      Injector.install tb.Testbed.hv;
      let k = tb.Testbed.attacker in
      let base = Addr.maddr_of_mfn (Option.get (Domain.mfn_of_pfn (Kernel.dom tb.Testbed.victim) 7)) in
      let addr = Int64.add base (Int64.of_int (off * 8)) in
      let addr = if off * 8 + 8 > Addr.page_size then base else addr in
      Injector.write_u64 k ~addr ~action:Injector.Arbitrary_write_physical v = Ok ()
      && Injector.read_u64 k ~addr ~action:Injector.Arbitrary_read_physical = Ok v)

(* --- Monitor ---------------------------------------------------------------------- *)

let test_monitor_clean_baseline () =
  let tb = tb () in
  let s = Monitor.snapshot tb in
  let s' = Monitor.snapshot tb in
  check_bool "no violations on idle system" true (Monitor.violations ~before:s ~after:s' = []);
  check_bool "zero pt exposure" true (List.for_all (fun (_, n) -> n = 0) s.Monitor.pt_exposure)

let test_monitor_detects_crash () =
  let tb = tb () in
  let before = Monitor.snapshot tb in
  Hv.panic tb.Testbed.hv ~reason:"BOOM" ~dump:[];
  let after = Monitor.snapshot tb in
  match Monitor.violations ~before ~after with
  | [ Monitor.Hypervisor_crash r ] -> check_str "reason" "BOOM" r
  | _ -> Alcotest.fail "expected crash violation"

let test_monitor_detects_escalation () =
  let tb = tb () in
  let before = Monitor.snapshot tb in
  Fs.write (Kernel.fs tb.Testbed.victim) ~path:"/tmp/injector_log" ~uid:0 "pwned";
  let after = Monitor.snapshot tb in
  check_bool "escalation" true
    (List.exists
       (function Monitor.Privilege_escalation _ -> true | _ -> false)
       (Monitor.violations ~before ~after))

let test_monitor_pt_exposure () =
  let tb = tb () in
  let hv = tb.Testbed.hv in
  let dom = Kernel.dom tb.Testbed.attacker in
  check_int "clean" 0 (Monitor.writable_pt_exposure hv dom);
  (* plant a writable self-map in a guest-reachable slot *)
  Frame.set_entry (Phys_mem.frame hv.Hv.mem dom.Domain.l4_mfn) Layout.xen_extra_slot
    (Pte.make ~mfn:dom.Domain.l4_mfn ~flags:[ Pte.Present; Pte.User; Pte.Rw ]);
  check_bool "exposure detected" true (Monitor.writable_pt_exposure hv dom > 0)

let test_monitor_pt_exposure_respects_hardening () =
  let tb = Testbed.create Version.V4_13 in
  let hv = tb.Testbed.hv in
  let dom = Kernel.dom tb.Testbed.attacker in
  Frame.set_entry (Phys_mem.frame hv.Hv.mem dom.Domain.l4_mfn) Layout.xen_extra_slot
    (Pte.make ~mfn:dom.Domain.l4_mfn ~flags:[ Pte.Present; Pte.User; Pte.Rw ]);
  check_int "hardened layout hides the state" 0 (Monitor.writable_pt_exposure hv dom)

let test_monitor_same_class () =
  let a = [ Monitor.Hypervisor_crash "x" ] in
  let b = [ Monitor.Hypervisor_crash "y" ] in
  check_bool "same modulo evidence" true (Monitor.same_class a b);
  check_bool "different" false (Monitor.same_class a [ Monitor.Privilege_escalation "z" ]);
  check_bool "empty vs empty" true (Monitor.same_class [] [])

(* --- Avi ------------------------------------------------------------------------ *)

let test_avi_venom_chain () =
  let final, trace = Avi.run Avi.Correct Avi.venom_scenario in
  (match final with Avi.Violated _ -> () | _ -> Alcotest.fail "expected violation");
  check_int "trace length" 4 (List.length trace);
  check_bool "reachable" true (Avi.reachable_violation Avi.venom_scenario)

let test_avi_handled () =
  let events =
    [
      Avi.Introduce_vulnerability "v";
      Avi.Attack { exploit = "e"; activates = true };
      Avi.Error_handling "page-type audit";
    ]
  in
  match Avi.run Avi.Correct events with
  | Avi.Handled _, _ -> ()
  | _ -> Alcotest.fail "expected handled"

let test_avi_no_violation_without_activation () =
  let events =
    [ Avi.Introduce_vulnerability "v"; Avi.Attack { exploit = "e"; activates = false }; Avi.Propagate ]
  in
  check_bool "latent fault stays latent" false (Avi.reachable_violation events)

let test_avi_no_violation_without_vulnerability () =
  let events = [ Avi.Attack { exploit = "e"; activates = true }; Avi.Propagate ] in
  check_bool "no vuln, no intrusion" false (Avi.reachable_violation events)

let prop_avi_violation_needs_attack_and_vuln =
  let event_gen =
    QCheck.Gen.(
      oneof
        [
          return (Avi.Introduce_vulnerability "v");
          map (fun b -> Avi.Attack { exploit = "e"; activates = b }) bool;
          return (Avi.Error_handling "h");
          return Avi.Propagate;
        ])
  in
  QCheck.Test.make ~name:"violation requires vulnerability then activating attack" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 8) event_gen))
    (fun events ->
      if Avi.reachable_violation events then
        List.exists (function Avi.Introduce_vulnerability _ -> true | _ -> false) events
        && List.exists (function Avi.Attack { activates = true; _ } -> true | _ -> false) events
      else true)

(* --- Weird_machine ----------------------------------------------------------------- *)

let test_weird_machine_concrete () =
  let m = Weird_machine.xsa_example in
  (match Weird_machine.run_concrete m [ "a"; "b"; "crafted-hypercall" ] with
  | Weird_machine.Erroneous_reached _ -> ()
  | Weird_machine.Running _ -> Alcotest.fail "expected erroneous state");
  match Weird_machine.run_concrete m [ "a"; "a"; "a" ] with
  | Weird_machine.Running 2 -> ()
  | _ -> Alcotest.fail "expected state 2"

let test_weird_machine_abstraction () =
  let m = Weird_machine.xsa_example in
  let inputs = [ "a"; "b"; "crafted-hypercall" ] in
  (match Weird_machine.abstract m ~inputs with
  | Some a -> (
      match Weird_machine.run_abstract a inputs with
      | Weird_machine.Erroneous_reached _ -> ()
      | Weird_machine.Running _ -> Alcotest.fail "abstract must reach erroneous")
  | None -> Alcotest.fail "abstraction exists");
  check_bool "benign has no abstraction" true (Weird_machine.abstract m ~inputs:[ "a" ] = None)

let prop_weird_machine_equivalence =
  let input_gen = QCheck.Gen.(oneofl [ "a"; "b"; "c"; "crafted-hypercall"; "noise" ]) in
  QCheck.Test.make ~name:"concrete and abstract machines agree (Fig 3)" ~count:500
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 6) input_gen))
    (fun inputs -> Weird_machine.equivalent Weird_machine.xsa_example ~inputs)

(* --- Im_catalog ----------------------------------------------------------------- *)

let test_catalog_covers_taxonomy () =
  check_int "one entry per functionality" (List.length Af.all) (List.length Im_catalog.catalog);
  List.iter
    (fun af ->
      let e = Im_catalog.find af in
      check_bool "right functionality" true (e.Im_catalog.functionality = af))
    Af.all

let test_catalog_models_consistent () =
  List.iter
    (fun e ->
      (* every model inside an entry carries the entry's functionality *)
      List.iter
        (fun m ->
          check_bool "model functionality matches" true
            (m.Intrusion_model.functionality = e.Im_catalog.functionality))
        e.Im_catalog.models;
      (* implemented entries come with models and example states *)
      if Im_catalog.implemented e then begin
        check_bool "has a model" true (e.Im_catalog.models <> []);
        check_bool "has example states" true (e.Im_catalog.example_states <> [])
      end
      else check_bool "unimplemented documented" true
        (match e.Im_catalog.injector with
        | Im_catalog.Unimplemented why -> String.length why > 10
        | _ -> false))
    Im_catalog.catalog

let test_catalog_coverage () =
  let got, total = Im_catalog.coverage () in
  check_int "total" 16 total;
  check_int "implemented" 14 got;
  check_bool "render mentions coverage" true
    (let s = Im_catalog.render () in
     let needle = "14/16" in
     let n = String.length needle and m = String.length s in
     let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
     go 0)

(* --- Report / trial -------------------------------------------------------------------- *)

let test_report_table () =
  let s = Report.table ~title:"T" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check_bool "title" true (String.length s > 0 && s.[0] = 'T');
  check_bool "grid" true (String.contains s '+');
  check_str "check" "Y" (Report.check true);
  check_str "empty" "" (Report.check false)

(* Fig 2 is one trial: the planted L4 self-map is the erroneous state,
   and [Campaign.trial] audits it and diffs the monitor snapshots. *)
let test_campaign_trial () =
  let tb = tb () in
  let selfmap tb =
    Erroneous_state.L4_selfmap_writable
      { l4_mfn = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn; slot = Layout.xen_extra_slot }
  in
  let act (tb : Testbed.t) =
    let l4 = (Kernel.dom tb.Testbed.attacker).Domain.l4_mfn in
    Frame.set_entry (Phys_mem.frame tb.Testbed.hv.Hv.mem l4) Layout.xen_extra_slot
      (Pte.make ~mfn:l4 ~flags:[ Pte.Present; Pte.User; Pte.Rw ]);
    { Campaign.transcript = [ "planted self-map" ]; states = [ selfmap tb ]; rc = None }
  in
  let r = Campaign.trial tb ~name:"planted-selfmap" Campaign.Injection Version.V4_6 act in
  check_bool "declared states" true (r.Campaign.r_states = [ selfmap tb ]);
  check_bool "state holds" true r.Campaign.r_state;
  check_bool "violation observed" true (r.Campaign.r_violations <> [])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "core"
    [
      ( "abusive_functionality",
        [
          Alcotest.test_case "taxonomy shape" `Quick test_af_taxonomy_shape;
          Alcotest.test_case "paper totals" `Quick test_af_paper_totals;
          Alcotest.test_case "string roundtrip" `Quick test_af_string_roundtrip;
          Alcotest.test_case "paper rows" `Quick test_af_paper_rows;
        ] );
      ( "intrusion_model",
        [
          Alcotest.test_case "compatibility" `Quick test_im_compatibility;
          Alcotest.test_case "render" `Quick test_im_render;
        ] );
      ( "erroneous_state",
        [
          Alcotest.test_case "idt audit" `Quick test_audit_idt;
          Alcotest.test_case "l4 self-map audit" `Quick test_audit_l4_selfmap;
          Alcotest.test_case "page kept audit" `Quick test_audit_page_kept;
          Alcotest.test_case "interrupt storm audit" `Quick test_audit_interrupt_storm;
          Alcotest.test_case "walk evidence" `Quick test_walk_evidence;
        ] );
      ( "injector",
        [
          Alcotest.test_case "install" `Quick test_injector_install;
          Alcotest.test_case "enosys when absent" `Quick test_injector_not_installed_enosys;
          Alcotest.test_case "write/read linear" `Quick test_injector_write_read_linear;
          Alcotest.test_case "physical mode" `Quick test_injector_physical_mode;
          Alcotest.test_case "rejects bad targets" `Quick test_injector_rejects_bad_targets;
          Alcotest.test_case "action codes" `Quick test_injector_action_codes;
          Alcotest.test_case "works on all versions" `Quick test_injector_works_on_all_versions;
        ]
        @ qsuite [ prop_injector_write_read_identity ] );
      ( "monitor",
        [
          Alcotest.test_case "clean baseline" `Quick test_monitor_clean_baseline;
          Alcotest.test_case "detects crash" `Quick test_monitor_detects_crash;
          Alcotest.test_case "detects escalation" `Quick test_monitor_detects_escalation;
          Alcotest.test_case "pt exposure" `Quick test_monitor_pt_exposure;
          Alcotest.test_case "pt exposure respects hardening" `Quick
            test_monitor_pt_exposure_respects_hardening;
          Alcotest.test_case "same class" `Quick test_monitor_same_class;
        ] );
      ( "avi",
        [
          Alcotest.test_case "venom chain" `Quick test_avi_venom_chain;
          Alcotest.test_case "handled" `Quick test_avi_handled;
          Alcotest.test_case "no activation no violation" `Quick
            test_avi_no_violation_without_activation;
          Alcotest.test_case "no vulnerability no violation" `Quick
            test_avi_no_violation_without_vulnerability;
        ]
        @ qsuite [ prop_avi_violation_needs_attack_and_vuln ] );
      ( "weird_machine",
        [
          Alcotest.test_case "concrete runs" `Quick test_weird_machine_concrete;
          Alcotest.test_case "abstraction" `Quick test_weird_machine_abstraction;
        ]
        @ qsuite [ prop_weird_machine_equivalence ] );
      ( "im_catalog",
        [
          Alcotest.test_case "covers taxonomy" `Quick test_catalog_covers_taxonomy;
          Alcotest.test_case "models consistent" `Quick test_catalog_models_consistent;
          Alcotest.test_case "coverage" `Quick test_catalog_coverage;
        ] );
      ( "report+pipeline",
        [
          Alcotest.test_case "table rendering" `Quick test_report_table;
          Alcotest.test_case "campaign trial" `Quick test_campaign_trial;
        ] );
    ]
