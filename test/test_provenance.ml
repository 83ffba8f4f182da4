(* Provenance tests: byte-granular taint mechanics, per-violation
   attribution across all six use cases (every Monitor violation and
   VMI finding must resolve to a non-empty origin set naming the
   injecting action), byte-for-byte causal-graph replay, and the
   provenance-off purity property (attaching the shadow must not change
   a trial's result row). *)

open Ii_trace
open Ii_xen
open Ii_core
module All = Ii_exploits.All_exploits
module B = Ii_backends.Backends
module K = Ii_backends.Backend_kvm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- taint mechanics ----------------------------------------------------- *)

let test_taint_observe_silent () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Injector_action 1) (fun () ->
      Provenance.taint p ~mfn:7 ~off:16 ~len:8);
  check_int "tainted bytes" 8 (Provenance.tainted_bytes p);
  check_bool "silent before any read" true
    (Provenance.silent p = [ (Provenance.Injector_action 1, 8) ]);
  Provenance.observe p ~consumer:Provenance.Pt_walk ~mfn:7 ~off:16 ~len:8;
  check_int "one edge" 1 (Provenance.edge_count p);
  check_bool "no longer silent" true (Provenance.silent p = []);
  check_bool "origin reaches the walker" true
    (Provenance.origins_for p (fun c -> c = Provenance.Pt_walk)
    = [ Provenance.Injector_action 1 ]);
  (* reads of untainted ranges must not fabricate edges *)
  Provenance.observe p ~consumer:Provenance.Pt_walk ~mfn:9 ~off:0 ~len:8;
  check_int "clean bytes add no edge" 1 (Provenance.edge_count p)

let test_overwrite_and_reset_clear () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Guest_write 2) (fun () ->
      Provenance.taint p ~mfn:3 ~off:0 ~len:16);
  (* an unlabelled overwrite clears the taint it covers *)
  Provenance.taint p ~mfn:3 ~off:0 ~len:8;
  check_int "half cleared" 8 (Provenance.tainted_bytes p);
  Provenance.observe p ~consumer:Provenance.Monitor_scan ~mfn:3 ~off:8 ~len:8;
  Provenance.reset_to_baseline p;
  check_int "reset clears taint" 0 (Provenance.tainted_bytes p);
  check_int "reset clears edges" 0 (Provenance.edge_count p)

(* Taint is tracked from a captured baseline on, never across one: a
   capture with a shadow attached is refused, and attaching after the
   capture is the supported order. *)
let test_capture_refuses_attached_shadow () =
  let m = Phys_mem.create ~frames:4 in
  Phys_mem.enable_provenance m ~tr:(Trace.create ());
  Alcotest.check_raises "capture with a shadow attached"
    (Invalid_argument "Phys_mem.capture_baseline: a provenance shadow is attached")
    (fun () -> Phys_mem.capture_baseline m);
  Phys_mem.set_provenance m None;
  Phys_mem.capture_baseline m;
  Phys_mem.enable_provenance m ~tr:(Trace.create ());
  check_int "reset with the shadow attached" 0 (Phys_mem.reset_to_baseline m)

let test_innermost_origin_wins () =
  let p = Provenance.create () in
  Provenance.with_origin p (Provenance.Hypercall_arg 13) (fun () ->
      Provenance.with_origin p (Provenance.Injector_action 4) (fun () ->
          Provenance.taint p ~mfn:1 ~off:0 ~len:4));
  Provenance.observe p ~consumer:Provenance.Idt_gate ~mfn:1 ~off:0 ~len:4;
  check_bool "injector action overrides the hypercall origin" true
    (Provenance.origins_read p = [ Provenance.Injector_action 4 ])

(* --- attribution: all six use cases -------------------------------------- *)

let xen_cases = [ "XSA-212-crash"; "XSA-212-priv"; "XSA-148-priv"; "XSA-182-test" ]

let test_xen_attribution_names_injector () =
  List.iter
    (fun name ->
      let r = Attribution.attribute (uc name) Campaign.Injection Version.V4_6 in
      check_bool (name ^ ": has violation or finding rows") true
        (List.exists (fun row -> row.Attribution.a_kind <> "silent") r.Attribution.ar_rows);
      check_bool (name ^ ": complete") true (Attribution.complete r);
      List.iter
        (fun row ->
          if row.Attribution.a_kind <> "silent" then begin
            check_bool
              (Printf.sprintf "%s: %S has origins" name row.Attribution.a_what)
              true
              (row.Attribution.a_origins <> []);
            check_bool
              (Printf.sprintf "%s: %S names the injecting action" name row.Attribution.a_what)
              true
              (List.exists (starts_with ~prefix:"injector#") row.Attribution.a_origins)
          end)
        r.Attribution.ar_rows)
    xen_cases

let test_kvm_attribution_names_injector () =
  List.iter
    (fun kuc ->
      let name = kuc.B.Kvm_campaign.uc_name in
      let r = B.Kvm_attribution.attribute kuc Campaign.Injection K.Stock in
      check_bool (name ^ ": has violation or finding rows") true
        (List.exists
           (fun row -> row.B.Kvm_attribution.a_kind <> "silent")
           r.B.Kvm_attribution.ar_rows);
      check_bool (name ^ ": complete") true (B.Kvm_attribution.complete r);
      List.iter
        (fun row ->
          if row.B.Kvm_attribution.a_kind <> "silent" then
            check_bool
              (Printf.sprintf "%s: %S names the injecting action" name
                 row.B.Kvm_attribution.a_what)
              true
              (List.exists (starts_with ~prefix:"injector#") row.B.Kvm_attribution.a_origins))
        r.B.Kvm_attribution.ar_rows)
    All.kvm_use_cases

let test_attribution_deterministic () =
  let run () =
    Attribution.to_json
      (Attribution.attribute_all
         (List.map uc xen_cases)
         Campaign.Injection Version.V4_6)
  in
  check_string "same JSON both runs" (run ()) (run ())

(* --- replay: the causal graph must reproduce byte for byte --------------- *)

(* A provenance-attached recording must replay whole: final state,
   (vts, event) stream, causal graph and (with coverage attached too)
   coverage map, in both modes, at the default shape and at 4 loaded
   domains. [run] records and replays one trial and returns whether the
   recording exported a graph plus the replay's four verdicts. *)
let check_replays name run =
  List.iter
    (fun (shape, domains, load) ->
      List.iter
        (fun mode ->
          List.iter
            (fun coverage ->
              let label =
                Printf.sprintf "%s %s %s%s: " name (Campaign.mode_to_string mode) shape
                  (if coverage then " +coverage" else "")
              in
              let exported, (equal, vts_equal, prov_equal, cov_equal) =
                run ~domains ~load ~coverage mode
              in
              check_bool (label ^ "graph exported") true exported;
              check_bool (label ^ "final state reproduced") true equal;
              check_bool (label ^ "vts stream reproduced") true vts_equal;
              check_bool (label ^ "graph byte-for-byte") true prov_equal;
              check_bool (label ^ "coverage map reproduced") true cov_equal)
            [ false; true ])
        [ Campaign.Real_exploit; Campaign.Injection ])
    [ ("default shape", None, None); ("4 loaded domains", Some 4, Some Load_mix.default) ]

let test_replay_graph_identical () =
  List.iter
    (fun uc0 ->
      check_replays uc0.Campaign.uc_name (fun ~domains ~load ~coverage mode ->
          let r =
            Trace_driver.record ?domains ?load ~provenance:true ~coverage uc0 mode Version.V4_6
          in
          let o = Trace_driver.replay r in
          ( r.Trace_driver.rec_prov <> None,
            Trace_driver.(o.rp_equal, o.rp_vts_equal, o.rp_prov_equal, o.rp_cov_equal) )))
    All.use_cases

let test_kvm_replay_graph_identical () =
  List.iter
    (fun kuc ->
      check_replays kuc.B.Kvm_campaign.uc_name (fun ~domains ~load ~coverage mode ->
          let r = B.Kvm_trace.record ?domains ?load ~provenance:true ~coverage kuc mode K.Stock in
          let o = B.Kvm_trace.replay r in
          ( r.B.Kvm_trace.rec_prov <> None,
            B.Kvm_trace.(o.rp_equal, o.rp_vts_equal, o.rp_prov_equal, o.rp_cov_equal) )))
    All.kvm_use_cases

(* --- the pool records what a boot records --------------------------------- *)

(* [dune runtest] runs from _build/default/test (corpus is a sibling,
   materialized by the dune deps); [dune exec] runs from the root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "../corpus"

let corpus_programs () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort compare
  |> List.map (fun f ->
         match Ii_scenario.Scn_loader.load_file (Filename.concat corpus_dir f) with
         | Ok p -> p
         | Error e -> Alcotest.failf "corpus/%s: %s" f e)

(* A backend together with its own boot function. *)
module type BOOTED = sig
  include Substrate.S

  val create : ?domains:int -> ?load:Load_mix.t -> config -> t
end

(* The trace driver's recording equals one made by hand, step by step,
   on a testbed from the backend's own boot: the same ring bytes, row,
   final snapshot, causal graph and coverage map. Its replay holds
   whole. *)
module Pool_is_boot (B : BOOTED) = struct
  module C = Campaign.Make (B)
  module T = Trace_driver.Make (B)

  let by_hand uc mode =
    let tb = B.create B.rq1_config in
    let tr = B.trace tb in
    Phys_mem.enable_provenance (B.mem tb) ~tr;
    Trace.set_coverage tr (Some (Coverage.create ()));
    Trace.enable tr;
    let row = C.run ~tb uc mode B.rq1_config in
    Trace.disable tr;
    ( Trace.to_bytes tr,
      row,
      B.snapshot tb,
      Option.map Provenance.to_json (Phys_mem.provenance (B.mem tb)) )

  let check (uc : C.use_case) =
    List.iter
      (fun mode ->
        let label = Printf.sprintf "%s %s %s: " B.name uc.C.uc_name (Campaign.mode_to_string mode) in
        let r = T.record ~provenance:true ~coverage:true uc mode B.rq1_config in
        let bytes, row, final, prov = by_hand uc mode in
        check_string (label ^ "ring bytes") bytes r.T.rec_bytes;
        check_bool (label ^ "row") true (row = r.T.rec_row);
        check_bool (label ^ "final snapshot") true (final = r.T.rec_final);
        check_bool (label ^ "graph exported") true (prov <> None);
        check_bool (label ^ "graph") true (prov = r.T.rec_prov);
        check_bool (label ^ "coverage map") true
          (Option.equal Coverage.equal row.C.r_coverage r.T.rec_cov);
        let o = T.replay r in
        check_bool (label ^ "replay: final state") true o.T.rp_equal;
        check_bool (label ^ "replay: vts stream") true o.T.rp_vts_equal;
        check_bool (label ^ "replay: graph") true o.T.rp_prov_equal;
        check_bool (label ^ "replay: coverage map") true o.T.rp_cov_equal)
      [ Campaign.Real_exploit; Campaign.Injection ]
end

module Xen_pool = Pool_is_boot (Substrate_xen)
module Kvm_pool = Pool_is_boot (K)
module XV = Ii_scenario.Scn_vm.Make (Ii_exploits.Scenario_xen)
module KV = Ii_scenario.Scn_vm.Make (Ii_backends.Scenario_kvm)

let test_pool_records_what_a_boot_records () =
  let progs = corpus_programs () in
  check_int "eight corpus programs" 8 (List.length progs);
  List.iter
    (fun p ->
      match Ii_scenario.Scn_bytecode.backend p with
      | Ii_scenario.Scn_bytecode.Kvm_only -> Kvm_pool.check (KV.use_case p)
      | Xen_only | Any -> Xen_pool.check (XV.use_case p))
    progs

(* --- purity: the shadow must not perturb trials -------------------------- *)

let strip_row (r : Campaign.result_row) =
  ( r.Campaign.r_use_case,
    r.Campaign.r_version,
    r.Campaign.r_mode,
    r.Campaign.r_state,
    r.Campaign.r_audits,
    r.Campaign.r_violations,
    r.Campaign.r_transcript,
    r.Campaign.r_rc,
    r.Campaign.r_telemetry )

let test_provenance_does_not_change_results () =
  List.iter
    (fun uc0 ->
      let off = Trace_driver.record uc0 Campaign.Injection Version.V4_6 in
      let on = Trace_driver.record ~provenance:true uc0 Campaign.Injection Version.V4_6 in
      check_bool (uc0.Campaign.uc_name ^ ": row unchanged") true
        (strip_row off.Trace_driver.rec_row = strip_row on.Trace_driver.rec_row);
      check_bool (uc0.Campaign.uc_name ^ ": final snapshot unchanged") true
        (off.Trace_driver.rec_final = on.Trace_driver.rec_final);
      check_bool (uc0.Campaign.uc_name ^ ": plain recording has no graph") true
        (off.Trace_driver.rec_prov = None))
    All.use_cases

let () =
  Alcotest.run "provenance"
    [
      ( "taint",
        [
          Alcotest.test_case "taint/observe/silent" `Quick test_taint_observe_silent;
          Alcotest.test_case "overwrite and reset clear" `Quick test_overwrite_and_reset_clear;
          Alcotest.test_case "innermost origin wins" `Quick test_innermost_origin_wins;
          Alcotest.test_case "capture refuses an attached shadow" `Quick
            test_capture_refuses_attached_shadow;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "xen use cases name the injector" `Quick
            test_xen_attribution_names_injector;
          Alcotest.test_case "kvm use cases name the injector" `Quick
            test_kvm_attribution_names_injector;
          Alcotest.test_case "deterministic JSON" `Quick test_attribution_deterministic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "xen graphs replay byte-for-byte" `Quick
            test_replay_graph_identical;
          Alcotest.test_case "kvm graphs replay byte-for-byte" `Quick
            test_kvm_replay_graph_identical;
          Alcotest.test_case "the pool records what a boot records" `Quick
            test_pool_records_what_a_boot_records;
        ] );
      ( "purity",
        [
          Alcotest.test_case "provenance does not change results" `Quick
            test_provenance_does_not_change_results;
        ] );
    ]
