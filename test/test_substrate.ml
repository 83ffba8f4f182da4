(* Refactor-neutrality and substrate tests.

   The substrate refactor must leave the Xen path byte-identical:
   trace recordings and campaign result rows produced through the
   substrate-generic drivers must equal the pre-refactor fixtures in
   [Golden_xen] (captured before the refactor; never regenerated).
   The KVM backend must be a complete substrate: campaign runs,
   checkpoint/reset, Errno-mapped injection port, deterministic trace
   record/replay, and working detectors. *)

open Ii_trace
open Ii_xen
open Ii_core
module All = Ii_exploits.All_exploits
module BK = Ii_backends.Backend_kvm
module KC = Ii_backends.Backends.Kvm_campaign
module KT = Ii_backends.Backends.Kvm_trace
module KV = Ii_backends.Backends.Kvm_vmi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

let kvm_uc name =
  match All.find_kvm name with Some uc -> uc | None -> Alcotest.fail ("no KVM use case " ^ name)

let mode_of_string = function
  | "exploit" -> Campaign.Real_exploit
  | "injection" -> Campaign.Injection
  | m -> Alcotest.fail ("bad mode in fixture: " ^ m)

(* --- Xen neutrality ------------------------------------------------------ *)

let test_golden_trace_bytes () =
  List.iter
    (fun (name, mode_s, trace_bytes, _) ->
      let r = Trace_driver.record (uc name) (mode_of_string mode_s) Version.V4_6 in
      (* the fixtures pre-date the virtual-timestamp field; stripping it
         re-frames the v2 ring back to the v1 layout they were cut from,
         so the (seq, event) stream is still compared byte-for-byte *)
      check_string
        (Printf.sprintf "%s/%s trace bytes" name mode_s)
        trace_bytes
        (Trace.strip_vts r.Trace_driver.rec_bytes))
    Golden_xen.cases

let test_golden_row_fingerprints () =
  List.iter
    (fun (name, mode_s, _, row_fp) ->
      let r = Trace_driver.record (uc name) (mode_of_string mode_s) Version.V4_6 in
      check_string
        (Printf.sprintf "%s/%s row fingerprint" name mode_s)
        row_fp
        (Fingerprint.Xen.row r.Trace_driver.rec_row))
    Golden_xen.cases

let test_golden_recordings_replay () =
  List.iter
    (fun (name, mode_s, _, _) ->
      let r = Trace_driver.record (uc name) (mode_of_string mode_s) Version.V4_6 in
      let o = Trace_driver.replay r in
      check_bool (Printf.sprintf "%s/%s applied" name mode_s) true (o.Trace_driver.rp_applied > 0);
      check_bool (Printf.sprintf "%s/%s equal" name mode_s) true o.Trace_driver.rp_equal)
    Golden_xen.cases

let test_backend_field_tags_xen () =
  let r = Campaign.run (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  check_string "r_backend" "xen" r.Campaign.r_backend

(* --- the shared four-action codec ---------------------------------------- *)

let all_actions =
  [
    Access.Arbitrary_read_linear;
    Access.Arbitrary_write_linear;
    Access.Arbitrary_read_physical;
    Access.Arbitrary_write_physical;
  ]

let test_access_roundtrip () =
  List.iter
    (fun a ->
      check_bool (Access.to_string a) true (Access.of_code (Access.code a) = Some a))
    all_actions;
  check_bool "bad code" true (Access.of_code 99L = None);
  (* the injector and the KVM ioctl expose the same codec *)
  List.iter
    (fun a -> check_bool "injector codec" true (Access.code a = Injector.action_code a))
    all_actions;
  List.iter
    (fun a ->
      check_bool "write split" (Access.is_write a)
        (a = Access.Arbitrary_write_linear || a = Access.Arbitrary_write_physical);
      check_bool "physical split" (Access.is_physical a)
        (a = Access.Arbitrary_read_physical || a = Access.Arbitrary_write_physical))
    all_actions

(* --- KVM backend --------------------------------------------------------- *)

let test_kvm_errno () =
  let t = BK.create BK.Stock in
  let b = Bytes.make 8 '\xaa' in
  (* gated port: ENOSYS before the injector is installed *)
  check_bool "enosys" true
    (BK.inject_write t ~addr:(Int64.add (Addr.maddr_of_mfn t.BK.victim.Ii_kvm.Kvm.vmcs_mfn) 8L)
       Access.Arbitrary_write_physical b
    = Error Errno.ENOSYS);
  BK.install_injector t;
  check_bool "installed" true t.BK.injector_on;
  (* unmapped target: EINVAL, same as the Xen injector *)
  check_bool "einval" true
    (BK.inject_write t ~addr:0x7fff_ffff_0000L Access.Arbitrary_write_physical b
    = Error Errno.EINVAL);
  (* failures surface as the same negative-errno return codes Xen uses *)
  check_int "enosys rc" (-38) (Errno.to_return_code Errno.ENOSYS);
  let kvm_rc = (KC.run (kvm_uc "KVM-VMCS") Campaign.Injection BK.Stock).KC.r_rc in
  check_bool "success rc" true (kvm_rc = Some 0)

let test_kvm_checkpoint_reset () =
  let t = BK.create BK.Stock in
  let vmcs_mfn = t.BK.victim.Ii_kvm.Kvm.vmcs_mfn in
  let vmcs_hash () = Phys_mem.frame_hash (Ii_kvm.Kvm.mem t.BK.kvm) vmcs_mfn in
  let clean_hash = vmcs_hash () in
  let r = KC.run ~tb:t (kvm_uc "KVM-VMCS") Campaign.Injection BK.Stock in
  check_bool "state injected" true r.KC.r_state;
  check_bool "victim died" true (t.BK.victim.Ii_kvm.Kvm.state <> Ii_kvm.Kvm.Vm_running);
  check_bool "hash moved" true (vmcs_hash () <> clean_hash);
  BK.reset t;
  check_bool "hash restored" true (vmcs_hash () = clean_hash);
  check_bool "victim revived" true (t.BK.victim.Ii_kvm.Kvm.state = Ii_kvm.Kvm.Vm_running);
  check_bool "injector disarmed" true (not t.BK.injector_on);
  (* a reset testbed audits clean and produces the same row again *)
  let audit = BK.audit t (BK.Vmcs_entry_tampered t.BK.victim.Ii_kvm.Kvm.vm_id) in
  check_bool "audit clean" false audit.Erroneous_state.holds;
  let r2 = KC.run ~tb:t (kvm_uc "KVM-VMCS") Campaign.Injection BK.Stock in
  check_bool "rerun equal" true
    (r2.KC.r_state = r.KC.r_state && r2.KC.r_violations = r.KC.r_violations
   && r2.KC.r_rc = r.KC.r_rc)

let test_kvm_rq1 () =
  List.iter
    (fun q ->
      let name = q.KC.rq1_exploit.KC.r_use_case in
      check_bool (name ^ " state") true q.KC.rq1_state;
      check_bool (name ^ " violation") true q.KC.rq1_violation)
    (KC.validate_rq1 All.kvm_use_cases)

let test_kvm_trace_deterministic () =
  List.iter
    (fun u ->
      let a = KT.record u Campaign.Injection BK.Stock in
      let b = KT.record u Campaign.Injection BK.Stock in
      check_string (u.KC.uc_name ^ " bytes") a.KT.rec_bytes b.KT.rec_bytes)
    All.kvm_use_cases

let test_kvm_replay () =
  List.iter
    (fun u ->
      List.iter
        (fun mode ->
          let r = KT.record u mode BK.Stock in
          let o = KT.replay r in
          check_bool (u.KC.uc_name ^ " applied") true (o.KT.rp_applied > 0);
          check_bool (u.KC.uc_name ^ " equal") true o.KT.rp_equal)
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.kvm_use_cases

let test_kvm_detectors_cover () =
  let trials = KV.coverage All.kvm_use_cases Campaign.Injection BK.Stock in
  check_int "trials" (List.length All.kvm_use_cases) (List.length trials);
  List.iter
    (fun t ->
      check_bool (t.KV.t_recording.KT.rec_use_case ^ " covered") true (KV.covered t))
    trials;
  List.iter
    (fun u ->
      check_bool (u.KC.uc_name ^ " side-effect-free") true
        (KV.side_effect_free u Campaign.Injection BK.Stock))
    All.kvm_use_cases

(* The domain-indexed view of Substrate.S, exercised on both backends:
   the guest population scales with ?domains, and [Monitor.by_domain] of
   [violations_tagged] partitions exactly the flat
   [violations] list — same multiset, every group keyed by a known
   domain name or "host", no empty groups. *)
let kvm_names t = List.map (fun vm -> vm.Ii_kvm.Kvm.vm_name) (Ii_kvm.Kvm.vms t.BK.kvm)

let test_domain_indexed_view () =
  let xen_tb = Ii_guest.Testbed.create ~domains:4 ~load:Load_mix.default Version.V4_6 in
  check_int "xen: four guest domains" 4 (List.length (Ii_guest.Testbed.domain_names xen_tb));
  let uc = Option.get (All.find "XSA-212-priv") in
  let before = Substrate_xen.snapshot xen_tb in
  ignore (Campaign.run ~tb:xen_tb uc Campaign.Injection Version.V4_6);
  Ii_guest.Testbed.tick_all xen_tb;
  let after = Substrate_xen.snapshot xen_tb in
  let flat = Substrate_xen.violations ~before ~after in
  let grouped = Monitor.by_domain (Substrate_xen.violations_tagged ~before ~after) in
  (* valid group keys: "host", plus any domain on the machine — dom0
     included, which is not in [Testbed.domain_names] *)
  let names =
    "host" :: List.map Ii_guest.Kernel.hostname (Ii_guest.Testbed.kernels xen_tb)
  in
  List.iter
    (fun (d, vs) ->
      check_bool ("xen: known domain " ^ d) true (List.mem d names);
      check_bool ("xen: non-empty group " ^ d) true (vs <> []))
    grouped;
  check_int "xen: groups partition the flat list" (List.length flat)
    (List.length (List.concat_map snd grouped));
  let kvm_tb = BK.create ~domains:3 BK.Stock in
  check_int "kvm: three guest domains" 3 (List.length (kvm_names kvm_tb));
  let kb = BK.snapshot kvm_tb in
  ignore (KC.run ~tb:kvm_tb (kvm_uc "KVM-VMCS") Campaign.Injection BK.Stock);
  let ka = BK.snapshot kvm_tb in
  let kflat = BK.violations ~before:kb ~after:ka in
  let kgrouped = Monitor.by_domain (BK.violations_tagged ~before:kb ~after:ka) in
  let knames = "host" :: kvm_names kvm_tb in
  List.iter
    (fun (d, vs) ->
      check_bool ("kvm: known domain " ^ d) true (List.mem d knames);
      check_bool ("kvm: non-empty group " ^ d) true (vs <> []))
    kgrouped;
  check_int "kvm: groups partition the flat list" (List.length kflat)
    (List.length (List.concat_map snd kgrouped))

let test_backend_registry () =
  check_bool "xen known" true (All.find_backend "xen" <> None);
  check_bool "kvm known" true (All.find_backend "kvm" <> None);
  check_bool "vbox unknown" false (All.find_backend "vbox" <> None);
  List.iter
    (fun (module K : All.BACKEND) ->
      let module B = K.Ops.B in
      check_bool (B.name ^ ": rq1 config round-trips") true
        (B.config_of_string (B.config_to_string B.rq1_config) = Some B.rq1_config);
      check_bool (B.name ^ ": has use cases") true (K.use_cases <> []))
    All.backends;
  let r = KC.run (kvm_uc "KVM-IDT") Campaign.Injection BK.Stock in
  check_string "r_backend kvm" "kvm" r.KC.r_backend

(* --- cross-backend comparability ----------------------------------------- *)

let test_cross_backend_rows () =
  let rows = Ii_exploits.Cross_system.run () in
  check_int "rows" 3 (List.length rows);
  List.iter
    (fun r ->
      check_bool "injected" true r.Ii_exploits.Cross_system.cs_injected;
      check_bool "rc comparable" true (r.Ii_exploits.Cross_system.cs_rc = Some 0);
      check_bool "violations observed" true (r.Ii_exploits.Cross_system.cs_violations <> []))
    rows;
  match rows with
  | [ xen; kvm_idt; kvm_vmcs ] ->
      check_bool "xen host dies" false xen.Ii_exploits.Cross_system.host_survives;
      check_bool "kvm hosts survive" true
        (kvm_idt.Ii_exploits.Cross_system.host_survives
        && kvm_vmcs.Ii_exploits.Cross_system.host_survives);
      check_bool "kvm bystanders survive" true
        (kvm_idt.Ii_exploits.Cross_system.bystander_survives
        && kvm_vmcs.Ii_exploits.Cross_system.bystander_survives)
  | _ -> Alcotest.fail "expected [xen; kvm-idt; kvm-vmcs]"

let () =
  Alcotest.run "substrate"
    [
      ( "neutrality",
        [
          Alcotest.test_case "golden trace bytes" `Quick test_golden_trace_bytes;
          Alcotest.test_case "golden row fingerprints" `Quick test_golden_row_fingerprints;
          Alcotest.test_case "golden recordings replay" `Quick test_golden_recordings_replay;
          Alcotest.test_case "xen rows tagged" `Quick test_backend_field_tags_xen;
        ] );
      ( "codec",
        [ Alcotest.test_case "four-action roundtrip" `Quick test_access_roundtrip ] );
      ( "kvm",
        [
          Alcotest.test_case "errno mapping" `Quick test_kvm_errno;
          Alcotest.test_case "checkpoint and reset" `Quick test_kvm_checkpoint_reset;
          Alcotest.test_case "rq1 exploit = injection" `Quick test_kvm_rq1;
          Alcotest.test_case "trace deterministic" `Quick test_kvm_trace_deterministic;
          Alcotest.test_case "record/replay equal" `Quick test_kvm_replay;
          Alcotest.test_case "detectors cover states" `Quick test_kvm_detectors_cover;
          Alcotest.test_case "registry" `Quick test_backend_registry;
          Alcotest.test_case "domain-indexed view" `Quick test_domain_indexed_view;
        ] );
      ( "cross",
        [ Alcotest.test_case "comparable rows" `Quick test_cross_backend_rows ] );
    ]
