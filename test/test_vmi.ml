(* Tests for the VMI introspection layer and the metrics registry: the
   registry must hand back the same instrument for the same identity and
   render deterministically; the semantic views must be reconstructions
   from raw frame bytes that never dirty a frame; every injected
   use-case state must be caught by at least one detector with a finite
   latency; detector-enabled recordings must replay to the same final
   snapshot; and the monitor's scan cache must stay transparent while
   VMI scans, injections and campaign resets interleave. *)

open Ii_trace
open Ii_xen
open Ii_vmi
open Ii_guest
open Ii_core
module All = Ii_exploits.All_exploits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

(* --- metrics registry ----------------------------------------------------- *)

let test_counter_identity () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg ~labels:[ ("mode", "injection") ] "trials_total" in
  let b = Metrics.counter reg ~labels:[ ("mode", "injection") ] "trials_total" in
  Metrics.inc a;
  Metrics.inc ~by:2 b;
  (* same (name, labels) -> same series: both publishers accumulated *)
  check_int "shared series" 3 (Metrics.counter_value a);
  let other = Metrics.counter reg ~labels:[ ("mode", "exploit") ] "trials_total" in
  check_int "distinct labels, distinct series" 0 (Metrics.counter_value other)

let test_counter_monotonic () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  check_bool "negative inc rejected" true
    (try
       Metrics.inc ~by:(-1) c;
       false
     with Invalid_argument _ -> true)

let test_kind_conflict () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "series");
  check_bool "gauge over counter rejected" true
    (try
       ignore (Metrics.gauge reg "series");
       false
     with Invalid_argument _ -> true)

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 1.; 10.; 100. ] "cost" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
  check_int "count" 5 (Metrics.histogram_count h);
  check_bool "sum" true (Metrics.histogram_sum h = 5060.5);
  (* cumulative, +inf last, last count = total *)
  check_bool "cumulative buckets" true
    (Metrics.bucket_counts h = [ (1., 1); (10., 3); (100., 4); (infinity, 5) ]);
  check_bool "different buckets rejected" true
    (try
       ignore (Metrics.histogram reg ~buckets:[ 2.; 20. ] "cost");
       false
     with Invalid_argument _ -> true)

let msg_contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* Every re-registration error must name the offending metric — a bare
   "already registered" with no name is useless in a trial log. *)
let test_reregistration_errors_name_metric () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "clashing_series");
  (match Metrics.gauge reg "clashing_series" with
  | exception Invalid_argument msg ->
      check_bool "kind clash names the metric" true (msg_contains msg "clashing_series")
  | _ -> Alcotest.fail "expected Invalid_argument");
  ignore (Metrics.histogram reg ~buckets:[ 1.; 2. ] "histo_series");
  (match Metrics.histogram reg ~buckets:[ 1.; 3. ] "histo_series" with
  | exception Invalid_argument msg ->
      check_bool "bucket clash names the metric" true (msg_contains msg "histo_series")
  | _ -> Alcotest.fail "expected Invalid_argument");
  match Metrics.histogram reg ~buckets:[] "empty_buckets" with
  | exception Invalid_argument msg ->
      check_bool "bad buckets names the metric" true (msg_contains msg "empty_buckets")
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_histogram_quantile () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 1.; 2.; 4. ] "quantile_series" in
  check_bool "empty histogram is nan" true (Float.is_nan (Metrics.histogram_quantile h 0.5));
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.5; 3. ];
  check_bool "median interpolates within its bucket" true
    (Float.abs (Metrics.histogram_quantile h 0.5 -. 1.5) < 1e-9);
  check_bool "q=1 reaches the top populated bound" true
    (Metrics.histogram_quantile h 1.0 = 4.);
  (* observations in the +inf bucket clamp to the highest finite bound *)
  Metrics.observe h 5000.;
  check_bool "overflow clamps" true (Metrics.histogram_quantile h 1.0 = 4.);
  check_bool "q outside [0,1] rejected" true
    (try
       ignore (Metrics.histogram_quantile h 1.5);
       false
     with Invalid_argument _ -> true)

let test_render_inf_bucket_explicit () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[ 1. ] "lat" in
  Metrics.observe h 5.;
  let s = Metrics.render_prometheus reg in
  check_bool "+Inf bucket line rendered" true
    (msg_contains s "lat_bucket{le=\"+Inf\"} 1")

let test_render_order_independent () =
  (* registration order must not leak into the rendering *)
  let build order =
    let reg = Metrics.create () in
    List.iter
      (fun (name, label) ->
        Metrics.inc (Metrics.counter reg ~labels:[ ("l", label) ] name))
      order;
    Metrics.observe (Metrics.histogram reg ~buckets:[ 4.; 16. ] "h") 5.;
    (Metrics.render_prometheus reg, Metrics.render_json reg)
  in
  let fwd = build [ ("b_total", "x"); ("a_total", "y"); ("a_total", "x") ] in
  let rev = build [ ("a_total", "x"); ("a_total", "y"); ("b_total", "x") ] in
  check_string "prometheus deterministic" (fst fwd) (fst rev);
  check_string "json deterministic" (snd fwd) (snd rev)

(* --- semantic views ------------------------------------------------------- *)

let test_frame_hash_read_only () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  let before = Phys_mem.dirty_count hv.Hv.mem in
  let h1 = Vmi.View.frame_hash hv hv.Hv.idt_mfn in
  let h2 = Vmi.View.frame_hash hv hv.Hv.idt_mfn in
  check_bool "stable" true (h1 = h2);
  check_int "hashing dirtied nothing" before (Phys_mem.dirty_count hv.Hv.mem);
  Phys_mem.write_u64 hv.Hv.mem
    (Int64.of_int (hv.Hv.idt_mfn * Addr.page_size))
    0xDEADL;
  check_bool "sensitive to a byte change" true
    (Vmi.View.frame_hash hv hv.Hv.idt_mfn <> h1)

let test_views_pristine () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  let dom = Kernel.dom tb.Testbed.attacker in
  let g = Vmi.View.pt_graph hv dom in
  check_bool "root is a node" true (List.mem_assoc dom.Domain.l4_mfn g.Vmi.View.g_nodes);
  check_bool "leaves found" true (g.Vmi.View.g_leaves <> []);
  check_bool "cost counted" true (g.Vmi.View.g_frames_read >= List.length g.Vmi.View.g_nodes);
  check_int "no exposure on a healthy system" 0 (Vmi.View.exposure_count hv g);
  check_bool "m2p consistent" true (Vmi.View.m2p_mismatches hv = []);
  check_bool "idt gates present and registered" true
    (Vmi.View.idt_gates hv <> []
    && List.for_all
         (fun (_, gate) -> Cpu.handler_name hv.Hv.cpu gate.Idt.handler <> None)
         (Vmi.View.idt_gates hv))

let test_detectors_silent_when_pristine () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  List.iter
    (fun d ->
      d.Vmi.Detector.arm hv;
      let r = d.Vmi.Detector.scan hv in
      check_bool (d.Vmi.Detector.name ^ " silent") true (r.Vmi.Detector.findings = []))
    (Vmi.Detector.all ())

let test_scan_reads_only_and_counts () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  let sched = Vmi.Scheduler.create (Vmi.Detector.all ()) in
  Vmi.Scheduler.arm sched hv;
  let dirty = Phys_mem.dirty_count hv.Hv.mem in
  Vmi.Scheduler.scan_now sched hv.Hv.trace hv;
  check_int "a full scan dirtied nothing" dirty (Phys_mem.dirty_count hv.Hv.mem);
  check_int "five detectors scanned" 5 (Vmi.Scheduler.scans_run sched);
  check_bool "scan cost counted" true (Vmi.Scheduler.frames_read sched > 0);
  (* satellite wiring: the always-on trace counters saw the scans *)
  check_int "counters" 5 (Trace.telemetry hv.Hv.trace).Trace.tm_vmi_scans

let test_integrity_fires_on_corruption () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  let d = Vmi.Detector.integrity_hasher () in
  d.Vmi.Detector.arm hv;
  Phys_mem.write_u64 hv.Hv.mem (Int64.of_int (hv.Hv.idt_mfn * Addr.page_size)) 0xBADL;
  let r = d.Vmi.Detector.scan hv in
  check_bool "hash mismatch reported" true (r.Vmi.Detector.findings <> [])

(* --- detector campaigns --------------------------------------------------- *)

let vmi_trials =
  lazy (Vmi_driver.coverage All.use_cases Campaign.Injection Version.V4_6)

(* Every injected state is detected, with a positive latency in virtual
   ns — also with three extra guest domains live under the default
   background mix. *)
let test_every_state_detected () =
  List.iter
    (fun (shape, trials) ->
      List.iter
        (fun t ->
          let name = t.Vmi_driver.t_recording.Trace_driver.rec_use_case ^ shape in
          check_bool (name ^ " covered") true (Vmi_driver.covered t);
          match Vmi_driver.best_latency_ns t with
          | Some l -> check_bool (name ^ " finite positive latency") true (Int64.compare l 0L > 0)
          | None -> Alcotest.fail (name ^ " has no latency"))
        trials)
    [
      ("", Lazy.force vmi_trials);
      ( " (4 domains, load)",
        Vmi_driver.coverage ~domains:4 ~load:Load_mix.default All.use_cases Campaign.Injection
          Version.V4_6 );
    ]

let test_expected_detectors_fire () =
  let fired name t = List.mem_assoc name t.Vmi_driver.t_first_fire in
  let find name =
    List.find
      (fun t -> t.Vmi_driver.t_recording.Trace_driver.rec_use_case = name)
      (Lazy.force vmi_trials)
  in
  (* the crash use case is caught by the baseline/liveness detectors,
     the three privilege ones by the page-table exposure scanner *)
  check_bool "integrity on XSA-212-crash" true (fired "integrity" (find "XSA-212-crash"));
  check_bool "idt-gates on XSA-212-crash" true (fired "idt-gates" (find "XSA-212-crash"));
  check_bool "liveness on XSA-212-crash" true (fired "liveness" (find "XSA-212-crash"));
  List.iter
    (fun ucn -> check_bool ("pt-exposure on " ^ ucn) true (fired "pt-exposure" (find ucn)))
    [ "XSA-212-priv"; "XSA-148-priv"; "XSA-182-test" ];
  (* a consistent system stays consistent: injections here never break M2P *)
  List.iter
    (fun t -> check_bool "m2p-inverse silent" false (fired "m2p-inverse" t))
    (Lazy.force vmi_trials)

let test_side_effect_free () =
  List.iter
    (fun uc ->
      check_bool (uc.Campaign.uc_name ^ " side-effect-free") true
        (Vmi_driver.side_effect_free uc Campaign.Injection Version.V4_6))
    All.use_cases

let test_detector_recording_replays () =
  List.iter
    (fun t ->
      let o = Trace_driver.replay t.Vmi_driver.t_recording in
      check_bool
        (t.Vmi_driver.t_recording.Trace_driver.rec_use_case ^ " replay equal")
        true o.Trace_driver.rp_equal)
    (Lazy.force vmi_trials)

let test_trial_deterministic () =
  let u = uc "XSA-148-priv" in
  let a = Vmi_driver.run_trial u Campaign.Injection Version.V4_6 in
  let b = Vmi_driver.run_trial u Campaign.Injection Version.V4_6 in
  check_bool "byte-identical recordings" true
    (a.Vmi_driver.t_recording.Trace_driver.rec_bytes
    = b.Vmi_driver.t_recording.Trace_driver.rec_bytes);
  check_bool "identical firing order" true
    (a.Vmi_driver.t_first_fire = b.Vmi_driver.t_first_fire);
  check_bool "identical latencies" true (a.Vmi_driver.t_latency_ns = b.Vmi_driver.t_latency_ns)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* Satellite: a ring small enough to wrap during the trial evicts the
   injection record; the surviving records must not be mistaken for an
   origin, or every latency silently reports from whatever scan record
   happened to survive. *)
let test_wraparound_during_scan_drops_latency () =
  let u = uc "XSA-148-priv" in
  let t = Vmi_driver.run_trial ~capacity_bytes:256 u Campaign.Injection Version.V4_6 in
  check_bool "ring wrapped" true (t.Vmi_driver.t_recording.Trace_driver.rec_dropped > 0);
  check_bool "no injection origin claimed" true (t.Vmi_driver.t_inject_seq = None);
  List.iter
    (fun (d, l) -> check_bool (d ^ ": no latency from survivors") true (l = None))
    t.Vmi_driver.t_latency_ns;
  check_bool "trial not counted as covered" true (not (Vmi_driver.covered t));
  (* detectors still fired — only the latency claim is withdrawn *)
  check_bool "firings preserved" true (t.Vmi_driver.t_first_fire <> [])

let test_matrix_render () =
  let s = Vmi_driver.matrix_table (Lazy.force vmi_trials) in
  List.iter
    (fun needle -> check_bool ("matrix mentions " ^ needle) true (contains s needle))
    [ "pt-exposure"; "XSA-212-crash" ]

(* --- monitor scan cache under VMI/campaign interleaving ------------------- *)

(* Satellite: the cross-trial scan cache checks its entries against
   dirty frames and touched page infos. VMI scans touch neither (pure
   reads), a trial injection touches both, and a campaign reset rolls
   them back — the cache must stay transparent across every
   interleaving. *)
let test_scan_cache_vmi_interleave () =
  let tb = Testbed.create Version.V4_6 in
  let hv = tb.Testbed.hv in
  let cache = Monitor.create_scan_cache () in
  let agree msg =
    check_bool (msg ^ ": cached = fresh") true
      (Monitor.snapshot ~cache tb = Monitor.snapshot tb)
  in
  let pristine = Monitor.snapshot ~cache tb in
  agree "initial";
  let sched = Vmi.Scheduler.create (Vmi.Detector.all ()) in
  Vmi.Scheduler.arm sched hv;
  Vmi.Scheduler.scan_now sched hv.Hv.trace hv;
  agree "after vmi scan";
  check_bool "scans kept the snapshot pristine" true
    (Monitor.snapshot ~cache tb = pristine);
  Injector.install hv;
  ignore ((uc "XSA-148-priv").Campaign.run_injection tb);
  agree "after injection";
  check_bool "injected state visible through the cache" true
    (Monitor.snapshot ~cache tb <> pristine);
  Testbed.reset tb;
  agree "after reset";
  check_bool "reset returned to pristine" true (Monitor.snapshot ~cache tb = pristine);
  Vmi.Scheduler.scan_now sched hv.Hv.trace hv;
  agree "after post-reset scan"

let () =
  Alcotest.run "vmi"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "render order-independent" `Quick
            test_render_order_independent;
          Alcotest.test_case "re-registration errors name the metric" `Quick
            test_reregistration_errors_name_metric;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "+Inf bucket rendered" `Quick test_render_inf_bucket_explicit;
        ] );
      ( "views",
        [
          Alcotest.test_case "frame hash read-only" `Quick test_frame_hash_read_only;
          Alcotest.test_case "pristine views" `Quick test_views_pristine;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "silent when pristine" `Quick
            test_detectors_silent_when_pristine;
          Alcotest.test_case "scan reads only" `Quick test_scan_reads_only_and_counts;
          Alcotest.test_case "integrity fires" `Quick test_integrity_fires_on_corruption;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "every state detected" `Quick test_every_state_detected;
          Alcotest.test_case "expected detectors fire" `Quick
            test_expected_detectors_fire;
          Alcotest.test_case "side-effect-free" `Quick test_side_effect_free;
          Alcotest.test_case "recordings replay" `Quick test_detector_recording_replays;
          Alcotest.test_case "trial deterministic" `Quick test_trial_deterministic;
          Alcotest.test_case "wraparound during scan drops latency" `Quick
            test_wraparound_during_scan_drops_latency;
          Alcotest.test_case "matrix render" `Quick test_matrix_render;
        ] );
      ( "scan_cache",
        [
          Alcotest.test_case "vmi/campaign interleaving" `Quick
            test_scan_cache_vmi_interleave;
        ] );
    ]
