(* The metric catalogue and the result line.

   Every untraced run reports every end-to-end metric; every traced run
   reports every per-layer metric. A per-layer metric of a layer the
   workload never enters reads 0 (e.g. [scn_vm.exec_ns.xen] on
   [random], which runs no scenario VM) — the "should not move" column
   of the prediction table, visible in the output. *)

let end_to_end =
  [
    ("trials_per_s", "1/s");
    ("trial_p90_us", "us");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    (* random: trial phases, re-driven on a benchmark-owned testbed *)
    ("testbed.reset_ns", "ns");
    ("testbed.reset_words", "words");
    ("phys_mem.dirty_frames", "count");
    ("injector.install_ns", "ns");
    ("injector.write_ns", "ns");
    ("injector.refused", "count");
    ("testbed.tick_all_ns", "ns");
    ("testbed.tick_all_words", "words");
    ("hv.deliver_fault_ns", "ns");
    ("kernel.access_ns", "ns");
    ("hypercall.dispatch_ns", "ns");
    ("monitor.snapshot_ns", "ns");
    ("monitor.snapshot_words", "words");
    ("monitor.violations_ns", "ns");
    (* random: whole trial and scaling *)
    ("random_campaign.run_one_ns_p50", "ns");
    ("random_campaign.run_one_ns_p99", "ns");
    ("random_campaign.run_one_words", "words");
    ("random_campaign.spanned_share", "frac");
    ("shard.parallel_efficiency", "frac");
    (* random: deterministic outcome tally of the GC sample *)
    ("outcome.crashed", "count");
    ("outcome.violated", "count");
    ("outcome.state_only", "count");
    ("outcome.no_effect", "count");
    ("outcome.refused", "count");
    (* every workload: GC over a fixed untraced sample, tracing cost *)
    ("gc.minor_collections_per_ktrial", "count");
    ("gc.major_collections_per_ktrial", "count");
    ("gc.promoted_words_per_trial", "words");
    ("gc.minor_pause_us_p50", "us");
    ("gc.minor_pause_us_p99", "us");
    ("gc.stw_pause_ms_total", "ms");
    ("perfbench.trace_overhead_ns", "ns");
    (* corpus: Campaign.run composed from Substrate.S calls *)
    ("substrate.reset_ns.xen", "ns");
    ("substrate.reset_ns.kvm", "ns");
    ("substrate.snapshot_ns.xen", "ns");
    ("substrate.snapshot_ns.kvm", "ns");
    ("substrate.tick_all_ns.xen", "ns");
    ("substrate.tick_all_ns.kvm", "ns");
    ("scn_vm.exec_ns.xen", "ns");
    ("scn_vm.exec_ns.kvm", "ns");
    ("substrate.audit_ns.xen", "ns");
    ("substrate.audit_ns.kvm", "ns");
    ("campaign.run_words.xen", "words");
    ("campaign.run_words.kvm", "words");
    (* corpus: exact per-cell counts from r_telemetry *)
    ("hypercall.calls_per_cell", "count");
    ("hypercall.failed_per_cell", "count");
    ("hv.faults_per_cell", "count");
    ("paging.flushes_per_cell", "count");
    ("mm.page_type_changes_per_cell", "count");
    ("injector.accesses_per_cell", "count");
    ("vclock.vtime_ns_per_cell", "ns");
    (* corpus: set-up *)
    ("scn_loader.load_ns", "ns");
    ("scn_check.check_ns", "ns");
    ("testbed.template_ns", "ns");
    ("testbed.fork_ns", "ns");
    (* observed: call costs *)
    ("testbed.create_ns", "ns");
    ("attribution.attribute_ns", "ns");
    ("trace_driver.record_ns", "ns");
    ("trace_driver.replay_ns", "ns");
    ("vmi.scheduler.arm_ns", "ns");
    ("vmi.scheduler.step_ns", "ns");
    (* observed: exact counts per trial *)
    ("vmi.scans", "count");
    ("vmi.frames_read", "count");
    ("trace.ring_bytes", "bytes");
    ("trace.records", "count");
    ("trace.dropped", "count");
    ("replay.applied", "count");
    ("replay.skipped", "count");
    ("provenance.edges", "count");
    ("provenance.tainted_bytes", "bytes");
    ("coverage.bits", "count");
  ]

(* One measured value, with its spread when it summarizes samples. *)
type value = { v : float; q1 : float; q3 : float; n : int }

let exact v = { v; q1 = v; q3 = v; n = 1 }

let of_samples ?(scale = 1.) s =
  {
    v = scale *. Pb_stats.median s;
    q1 = scale *. Pb_stats.quantile s 0.25;
    q3 = scale *. Pb_stats.quantile s 0.75;
    n = Pb_stats.count s;
  }

(* A tail percentile: its spread across runs is what matters, so no
   quartiles are attached; [n] is the sample count it rests on. *)
let percentile ?(scale = 1.) s q =
  let v = scale *. Pb_stats.quantile s q in
  { v; q1 = v; q3 = v; n = Pb_stats.count s }

type t = {
  workload : string;
  traced : bool;
  values : (string, value) Hashtbl.t;
  info : (string * string) list ref;  (** name, JSON value *)
}

let create ~workload ~traced = { workload; traced; values = Hashtbl.create 64; info = ref [] }
let set r name v = Hashtbl.replace r.values name v
let info r key json = r.info := (key, json) :: !(r.info)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* The throughput and latency metrics, from per-unit latencies in host
   ns (or, with [scale], another unit) and per-round rates.

   A shared host switches between a slow and a ~1.4x faster speed, in
   stretches from seconds to minutes, so per-round rates are bimodal and
   their median moves with the share of fast time a run happens to
   catch. Over 45 s windows of one 7-minute run, the spread of the
   per-round median was 0.16 (corpus) and 0.22 (random); of the 10th
   percentile, 0.02 and 0.04. The gated figures therefore sit on the
   slow side: [trials_per_s] is the 10th percentile of the per-round
   rates (the rate nine rounds in ten reach) and the latency is p90. The
   median rate, p50, p75 and p99 are printed beside them but do not
   gate; p99's spread exceeded any usable bound. *)
let set_latency r ?(scale = 1e-3) ~latency ~rates () =
  set r "trials_per_s" (percentile rates 0.10);
  set r "trial_p90_us" (percentile ~scale latency 0.90);
  info r "trials_per_s_median" (json_num (Pb_stats.median rates));
  info r "trial_p50_us" (json_num (scale *. Pb_stats.median latency));
  info r "trial_p75_us" (json_num (scale *. Pb_stats.quantile latency 0.75));
  info r "trial_p99_us" (json_num (scale *. Pb_stats.quantile latency 0.99));
  info r "latency_samples" (string_of_int (Pb_stats.count latency))

(* Every span series, under its own name. *)
let set_spans r (sp : Pb_stats.spans) =
  Hashtbl.iter (fun name s -> set r name (of_samples s)) sp.Pb_stats.tbl

(* The GC metrics shared by every traced run, over a sample of [units]
   trials, cells or observed trials. *)
let set_gc r ~units (g : Pb_stats.gc_delta) (ev : Pb_stats.Gc_events.t) =
  let per_k n = exact (1000. *. float_of_int n /. units) in
  set r "gc.minor_collections_per_ktrial" (per_k g.Pb_stats.minor_collections);
  set r "gc.major_collections_per_ktrial" (per_k g.Pb_stats.major_collections);
  set r "gc.promoted_words_per_trial" (exact (g.Pb_stats.promoted_words /. units));
  set r "gc.minor_pause_us_p50" (of_samples ~scale:1e-3 ev.Pb_stats.Gc_events.minor_pause_ns);
  set r "gc.minor_pause_us_p99" (percentile ~scale:1e-3 ev.Pb_stats.Gc_events.minor_pause_ns 0.99);
  set r "gc.stw_pause_ms_total" (exact (!(ev.Pb_stats.Gc_events.stw_ns) /. 1e6));
  info r "gc_events_lost" (string_of_int !(ev.Pb_stats.Gc_events.lost))

(* The catalogue this run reports, in order. End-to-end metrics have no
   "not applicable" reading, so a missing one is a harness bug. *)
let catalogue r = if r.traced then per_layer else end_to_end

let lookup r (name, _) =
  match Hashtbl.find_opt r.values name with
  | Some v -> v
  | None when r.traced -> exact 0.
  | None -> failwith ("perfbench: end-to-end metric not measured: " ^ name)

(* Human-readable table, the informational JSON line, then the result
   line — the last line of stdout. *)
let print r ~attempted ~failed =
  Printf.printf "perfbench %s (%s)\n" r.workload (if r.traced then "traced" else "untraced");
  List.iter
    (fun ((name, unit_) as m) ->
      let x = lookup r m in
      if x.n > 1 then
        Printf.printf "  %-36s %16.6g %-6s  [q1 %.6g, q3 %.6g, n=%d]\n" name x.v unit_ x.q1 x.q3 x.n
      else Printf.printf "  %-36s %16.6g %s\n" name x.v unit_)
    (catalogue r);
  let spread =
    List.filter_map
      (fun ((name, _) as m) ->
        let x = lookup r m in
        if x.n < 2 then None
        else
          Some
            (Printf.sprintf "%s:{\"q1\":%s,\"q3\":%s,\"n\":%d}" (json_string name)
               (json_num x.q1) (json_num x.q3) x.n))
      (catalogue r)
  in
  let info =
    List.rev_map (fun (k, j) -> Printf.sprintf "%s:%s" (json_string k) j) !(r.info)
    @ [ Printf.sprintf "\"spread\":{%s}" (String.concat "," spread) ]
  in
  Printf.printf "{\"perfbench_info\":{%s}}\n" (String.concat "," info);
  let finite = ref true in
  let metrics =
    List.map
      (fun ((name, unit_) as m) ->
        let x = lookup r m in
        if not (Float.is_finite x.v) then finite := false;
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name) (json_num x.v)
          (json_string unit_))
      (catalogue r)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0 && attempted > 0 && !finite)
    attempted failed (String.concat "," metrics)
