(* Workload [observed]: the trial with every observer attached — what
   [xenrepro attribution], [trace --replay], [coverage] and the
   cross-domain gate do. Per corpus program, in injection mode on its
   backend's RQ1 configuration at 4 domains under the default load, one
   trial is three calls: Attribution.attribute (provenance + VMI),
   Trace_driver.record ~coverage:true with a Vmi.Scheduler observer,
   and Trace_driver.replay of that recording. Provenance stays off the
   replayed recording: with it attached, virtual timestamps and (with
   VMI) the causal graph do not replay, a Trace_driver limitation this
   benchmark neither works around nor counts. The seed shuffles the
   program order of every round.

   Its untraced run is not one of the gated workloads in BENCHMARK.json:
   three fresh boots per trial make it memory-bound, and on a shared host
   its ten-run spread reached 0.28, past the largest bound a metric may
   have. Its layers are measured by the corpus workload's traced run,
   which calls [traced ~gc:false]. *)

module S = Pb_stats
module Kvm = Ii_backends.Backend_kvm

let domains = Pb_corpus.domains
let load = Pb_corpus.load_mix

(* Per-trial exact counts. *)
type counts = {
  scans : int;
  frames_read : int;
  ring_bytes : int;
  records : int;
  dropped : int;
  applied : int;
  skipped : int;
  edges : int;
  tainted_bytes : int;
  coverage_bits : int;
}

module Obs (B : Substrate.S) = struct
  module A = Attribution.Make (B)
  module T = Trace_driver.Make (B)

  (* One observed trial; with [sp], every call (and each VMI arm/step
     inside the observer closures) is a span. Returns whether every
     check held, and the trial's counts. *)
  let trial ?sp uc =
    let span name f = S.maybe_span sp name f in
    let config = B.rq1_config in
    let ar =
      span "attribution.attribute_ns" (fun () ->
          A.attribute ~domains ~load uc Campaign.Injection config)
    in
    let sched = Vmi.Scheduler.create (B.detectors ()) in
    let r =
      span "trace_driver.record_ns" (fun () ->
          T.record ~domains ~load ~coverage:true
            ~prepare:(fun tb -> span "vmi.scheduler.arm_ns" (fun () -> Vmi.Scheduler.arm sched tb))
            ~observer:(fun tb ->
              span "vmi.scheduler.step_ns" (fun () -> Vmi.Scheduler.step sched (B.trace tb) tb))
            uc Campaign.Injection config)
    in
    let rp = span "trace_driver.replay_ns" (fun () -> T.replay r) in
    let ok =
      A.complete ar && rp.T.rp_equal && rp.T.rp_vts_equal && rp.T.rp_cov_equal
      && r.T.rec_dropped = 0
    in
    ( ok,
      {
        scans = Vmi.Scheduler.scans_run sched;
        frames_read = Vmi.Scheduler.frames_read sched;
        ring_bytes = String.length r.T.rec_bytes;
        records = List.length (T.events r);
        dropped = r.T.rec_dropped;
        applied = rp.T.rp_applied;
        skipped = rp.T.rp_skipped;
        edges = ar.A.ar_edges;
        tainted_bytes = ar.A.ar_tainted_bytes;
        coverage_bits =
          (match r.T.rec_cov with Some m -> Coverage.popcount m | None -> 0);
      } )
end

module OX = Obs (Substrate_xen)
module OK = Obs (Kvm)

type prog = Xen_prog of Pb_corpus.XV.C.use_case | Kvm_prog of Pb_corpus.KV.C.use_case

let programs (t : Pb_corpus.t) =
  Array.of_list
    (List.map (fun (_, uc) -> Xen_prog uc) t.Pb_corpus.xen
    @ List.map (fun (_, uc) -> Kvm_prog uc) t.Pb_corpus.kvm)

let trial ?sp = function Xen_prog uc -> OX.trial ?sp uc | Kvm_prog uc -> OK.trial ?sp uc

(* One set-up: load, check and compile the corpus, and boot each
   backend's RQ1 configuration at the workload's shape. *)
let setup_once () =
  ignore (Pb_corpus.load_or_exit ());
  ignore (Substrate_xen.create ~domains ~load Substrate_xen.rq1_config);
  ignore (Kvm.create ~domains ~load Kvm.rq1_config)

(* The closed loop over every program. [on_trial i counts dt] sees
   every completed trial. *)
let rounds ?(on_trial = fun _ _ _ -> ()) progs ~seed ~until =
  S.closed_loop ~n:(Array.length progs) ~seed ~until
    ~call:(fun i -> trial progs.(i))
    ~check:(fun i (ok, counts) dt ->
      on_trial i counts dt;
      ok)

let untraced t ~seed ~seconds ~report =
  let progs = programs t in
  let gc0 = Gc.quick_stat () in
  let loop = rounds progs ~seed ~until:(S.Seconds seconds) in
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  Pb_report.set_latency report ~latency:loop.S.latency ~rates:loop.S.rates ();
  (loop.S.attempted, loop.S.failed, g)

let gc_sample_rounds = 2
let create_reps = 10

(* [~gc:false] leaves the GC and tracing-overhead metrics to the caller
   (the corpus workload's traced run reports its own) and puts this
   workload's overhead in the info line instead. *)
let traced ?(gc = true) t ~seed ~seconds ~report =
  let set name v = Pb_report.set report name v in
  let progs = programs t in
  let sp = S.spans () in
  for _ = 1 to create_reps do
    S.span sp "testbed.create_ns" (fun () ->
        ignore (Substrate_xen.create ~domains ~load Substrate_xen.rq1_config))
  done;
  (* GC: a fixed number of untraced rounds with the event ring open;
     the first round's counts are the exact per-trial counts *)
  let ev = if gc then Some (S.Gc_events.create ()) else None in
  let gc0 = Gc.quick_stat () in
  let first = Array.make (Array.length progs) None in
  let sample =
    rounds progs ~seed ~until:(S.Rounds gc_sample_rounds) ~on_trial:(fun i c _ ->
        Option.iter S.Gc_events.poll ev;
        if first.(i) = None then first.(i) <- Some c)
  in
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  Option.iter
    (fun ev ->
      S.Gc_events.stop ev;
      Pb_report.set_gc report ~units:(float_of_int sample.S.attempted) g ev)
    ev;
  let counts = List.filter_map Fun.id (Array.to_list first) in
  let per_trial f =
    Pb_report.exact
      (float_of_int (List.fold_left (fun acc c -> acc + f c) 0 counts)
      /. float_of_int (List.length counts))
  in
  set "vmi.scans" (per_trial (fun c -> c.scans));
  set "vmi.frames_read" (per_trial (fun c -> c.frames_read));
  set "trace.ring_bytes" (per_trial (fun c -> c.ring_bytes));
  set "trace.records" (per_trial (fun c -> c.records));
  set "trace.dropped" (per_trial (fun c -> c.dropped));
  set "replay.applied" (per_trial (fun c -> c.applied));
  set "replay.skipped" (per_trial (fun c -> c.skipped));
  set "provenance.edges" (per_trial (fun c -> c.edges));
  set "provenance.tainted_bytes" (per_trial (fun c -> c.tainted_bytes));
  set "coverage.bits" (per_trial (fun c -> c.coverage_bits));
  (* spans: each trial runs untraced (timed by [rounds]), then again
     with spans; the difference of the medians is the tracing overhead *)
  let traced_ns = S.samples () and failed = ref 0 in
  let loop =
    rounds progs ~seed:(seed + 1) ~until:(S.Seconds seconds) ~on_trial:(fun i _ _ ->
        let t0 = S.now_ns () in
        (match trial ~sp progs.(i) with
        | true, _ -> ()
        | false, _ -> incr failed
        | exception e ->
            prerr_endline ("perfbench: traced observed trial raised " ^ Printexc.to_string e);
            incr failed);
        S.add traced_ns (S.elapsed_ns t0))
  in
  Pb_report.set_spans report sp;
  let overhead = S.median traced_ns -. S.median loop.S.latency in
  if gc then set "perfbench.trace_overhead_ns" (Pb_report.exact overhead)
  else Pb_report.info report "observed_trace_overhead_ns" (Pb_report.json_num overhead);
  (sample.S.attempted + loop.S.attempted, sample.S.failed + loop.S.failed + !failed, g)
