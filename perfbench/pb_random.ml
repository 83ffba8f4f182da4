(* Workload [random]: the §IV-C randomized campaign, the shape of
   [xenrepro fuzz --soft-errors] — Campaign_scheduler.run over every
   Xen version with every target class.

   Untraced, it runs back-to-back campaign batches of [batch] trials per
   version (batch b draws its trials from seed (seed, b)) on one worker
   and reports the median batch rate. The scheduler exposes no per-trial
   completion, so the latency percentiles are over batch wall time
   divided by the batch's trials.

   One worker, because on a shared 2-vCPU host a 2-domain run is not
   steady: when a neighbour takes one core, every stop-the-world minor
   GC waits for it, and ten-seed runs spread from 9k to 24k trials/s
   while one-domain workloads stayed within 5%. Scaling to min(2, nproc)
   workers is measured in the traced run instead
   ([shard.parallel_efficiency]). *)

module RC = Random_campaign
module S = Pb_stats

let batch = 1000
let versions = Version.all
let batch_trials = batch * List.length versions
let batch_seed ~seed b = Int64.of_int ((seed * 1_000_003) + b)

(* Template boots for every version: what the warm pool builds before a
   campaign's first fork. [Testbed.create_pooled] builds each template
   once per process, so repetitions boot and freeze the same
   configuration by hand. *)
let setup_once () =
  List.iter
    (fun v ->
      let tmpl = Testbed.create v in
      Phys_mem.freeze tmpl.Testbed.hv.Hv.mem;
      ignore (Testbed.fork tmpl))
    versions

let warm_pool () = List.iter (fun v -> ignore (Testbed.create_pooled v)) versions

let run_batch ~workers ~seed b =
  Campaign_scheduler.run ~seed:(batch_seed ~seed b) ~targets:RC.all_targets ~workers
    ~trials:batch versions

(* Output checks on one batch: each version's tally sums to its trial
   count, and every [check_every]-th trial, re-run on a fresh 1-worker
   worker, is identical. Returns the number of failed trials. *)
let check_every = 499

let check_batch ~seed b summaries =
  let failed = ref 0 in
  List.iter
    (fun (s : RC.summary) ->
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.RC.tally in
      if total <> s.RC.s_trials || List.length s.RC.trials <> s.RC.s_trials then
        failed := !failed + abs (s.RC.s_trials - total) + 1;
      List.iter
        (fun (t : RC.trial) ->
          if t.RC.index mod check_every = 0 then begin
            let w = RC.make_worker ~pooled:true s.RC.s_version in
            let again =
              RC.run_one w ~seed:(batch_seed ~seed b) ~targets:RC.all_targets t.RC.index
            in
            if again <> t then incr failed
          end)
        s.RC.trials)
    summaries;
  !failed

(* --- the trial, re-driven through public calls ---------------------------- *)

(* A benchmark-owned pooled testbed per version, with the same monitor
   cache and memoized pristine before-snapshot a campaign worker keeps. *)
type redriver = {
  tb : Testbed.t;
  cache : Monitor.scan_cache;
  mutable before : Monitor.snapshot option;
}

let redriver v = { tb = Testbed.create_pooled v; cache = Monitor.create_scan_cache (); before = None }

(* The activation workload of a randomized trial, one span per layer
   call when [sp] is given. *)
let activate sp (tb : Testbed.t) =
  S.maybe_span ~words:"testbed.tick_all_words" sp "testbed.tick_all_ns" (fun () -> Testbed.tick_all tb);
  let k = tb.Testbed.attacker in
  S.maybe_span sp "hv.deliver_fault_ns" (fun () ->
      ignore (Hv.deliver_fault tb.Testbed.hv ~vector:32 ~detail:"timer interrupt"));
  S.maybe_span sp "kernel.access_ns" (fun () ->
      ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
      ignore (Kernel.read_u64 k (Domain.kernel_vaddr_of_pfn 6));
      ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L));
  S.maybe_span sp "hypercall.dispatch_ns" (fun () ->
      ignore (Kernel.hypercall_rc k (Hypercall.Console_io "campaign tick")));
  S.maybe_span ~words:"testbed.tick_all_words" sp "testbed.tick_all_ns" (fun () -> Testbed.tick_all tb)

(* The non-memory injector hooks; [addr] selects the hook. *)
let run_hook (tb : Testbed.t) choice =
  let hv = tb.Testbed.hv in
  let victim = Kernel.dom tb.Testbed.victim in
  match Int64.to_int choice land 3 with
  | 0 ->
      ignore (Sched.hang_vcpu hv.Hv.sched ~dom:victim.Domain.id ~reason:"fuzzed hang");
      Some victim.Domain.id
  | 1 ->
      ignore (Event_channel.force_pending_all victim.Domain.events);
      None
  | 2 ->
      Xenstore.inject_write hv.Hv.xenstore
        (Xenstore.domain_path victim.Domain.id "memory/target")
        "48";
      None
  | _ ->
      ignore (Hv.exhaust_memory hv ~leave:(Phys_mem.free_frames hv.Hv.mem / 4));
      None

let observe sp rd =
  let after = S.maybe_span ~words:"monitor.snapshot_words" sp "monitor.snapshot_ns" (fun () -> Monitor.snapshot ~cache:rd.cache rd.tb) in
  let before = Option.get rd.before in
  S.maybe_span sp "monitor.violations_ns" (fun () -> Monitor.violations ~before ~after)

let crashed = List.exists (function Monitor.Hypervisor_crash _ -> true | _ -> false)

(* Re-drive [t] from its target, address and value alone; returns the
   outcome and violations, which must equal the campaign's. *)
let redrive ?sp rd (t : RC.trial) =
  let tb = rd.tb in
  Option.iter
    (fun sp ->
      S.note sp "phys_mem.dirty_frames" (float_of_int (Phys_mem.dirty_count tb.Testbed.hv.Hv.mem)))
    sp;
  S.maybe_span ~words:"testbed.reset_words" sp "testbed.reset_ns" (fun () -> Testbed.reset tb);
  S.maybe_span sp "injector.install_ns" (fun () -> Injector.install tb.Testbed.hv);
  if rd.before = None then rd.before <- Some (Monitor.snapshot ~cache:rd.cache tb);
  let hv = tb.Testbed.hv in
  match t.RC.target with
  | RC.Component_hooks ->
      let cleanup = S.maybe_span sp "injector.write_ns" (fun () -> run_hook tb t.RC.t_addr) in
      activate sp tb;
      let vs = observe sp rd in
      Option.iter (fun dom -> ignore (Sched.unhang_vcpu hv.Hv.sched ~dom)) cleanup;
      ((if crashed vs then RC.Crashed else if vs <> [] then RC.Violated else RC.No_effect), vs)
  | target -> (
      let injected =
        S.maybe_span sp "injector.write_ns" (fun () ->
            match target with
            | RC.Soft_error_bit_flip ->
                let bit = Int64.to_int (Int64.logand t.RC.t_value 63L) in
                let word = Phys_mem.read_u64 hv.Hv.mem t.RC.t_addr in
                Phys_mem.write_u64 hv.Hv.mem t.RC.t_addr
                  (Int64.logxor word (Int64.shift_left 1L bit));
                Ok ()
            | _ ->
                Injector.write_u64 tb.Testbed.attacker ~addr:t.RC.t_addr
                  ~action:Injector.Arbitrary_write_physical t.RC.t_value)
      in
      match injected with
      | Error _ -> (RC.Refused, [])
      | Ok () ->
          activate sp tb;
          let vs = observe sp rd in
          let outcome =
            if crashed vs then RC.Crashed
            else if vs <> [] then RC.Violated
            else if
              target <> RC.Soft_error_bit_flip
              && Phys_mem.read_u64 hv.Hv.mem t.RC.t_addr = t.RC.t_value
            then RC.State_only
            else RC.No_effect
          in
          (outcome, vs))

(* --- runs ----------------------------------------------------------------- *)

let untraced ~seed ~seconds ~report =
  let rates = S.samples () and per_trial_us = S.samples () in
  let attempted = ref 0 and failed = ref 0 in
  let gc0 = Gc.quick_stat () in
  let start = S.now_ns () in
  let b = ref 0 in
  while S.keep_going (S.Seconds seconds) ~start !b do
    let t0 = S.now_ns () in
    let summaries = run_batch ~workers:1 ~seed !b in
    let dt = S.elapsed_ns t0 in
    if !b > 0 then begin
      S.add rates (float_of_int batch_trials /. (dt /. 1e9));
      S.add per_trial_us (dt /. 1e3 /. float_of_int batch_trials)
    end;
    attempted := !attempted + batch_trials;
    failed := !failed + check_batch ~seed !b summaries;
    incr b
  done;
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  Pb_report.set_latency report ~scale:1. ~latency:per_trial_us ~rates ();
  (!attempted, !failed, g)

let gc_sample_batches = 4

let traced ~seed ~seconds ~workers ~report =
  let set name v = Pb_report.set report name v in
  (* 1. GC: a fixed untraced sample on one worker, as in the untraced
     run, with the runtime's event ring open. *)
  let ev = S.Gc_events.create () in
  let gc0 = Gc.quick_stat () in
  let one_ns = ref 0. and tallies = Hashtbl.create 8 in
  let sample = ref [] and reference = ref [] in
  for b = 0 to gc_sample_batches - 1 do
    S.Gc_events.poll ev;
    let t0 = S.now_ns () in
    let summaries = run_batch ~workers:1 ~seed b in
    one_ns := !one_ns +. S.elapsed_ns t0;
    S.Gc_events.poll ev;
    reference := summaries :: !reference;
    List.iter
      (fun (s : RC.summary) ->
        List.iter
          (fun (o, n) ->
            Hashtbl.replace tallies o (n + Option.value ~default:0 (Hashtbl.find_opt tallies o)))
          s.RC.tally)
      summaries;
    if b = 0 then sample := List.map (fun (s : RC.summary) -> (s.RC.s_version, s.RC.trials)) summaries
  done;
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  S.Gc_events.stop ev;
  let trials = float_of_int (gc_sample_batches * batch_trials) in
  Pb_report.set_gc report ~units:trials g ev;
  (* 2. Scaling: the same batches on [workers] workers, which must
     return the 1-worker summaries byte for byte. *)
  let many_ns = ref 0. and sharded_mismatches = ref 0 in
  List.iteri
    (fun b summaries ->
      let t0 = S.now_ns () in
      let sharded = run_batch ~workers ~seed b in
      many_ns := !many_ns +. S.elapsed_ns t0;
      if sharded <> summaries then incr sharded_mismatches)
    (List.rev !reference);
  (* the 2-worker rate / (workers x the 1-worker rate) *)
  set "shard.parallel_efficiency" (Pb_report.exact (!one_ns /. (float_of_int workers *. !many_ns)));
  List.iter
    (fun (o, name) ->
      set name (Pb_report.exact (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tallies o)))))
    [
      (RC.Crashed, "outcome.crashed");
      (RC.Violated, "outcome.violated");
      (RC.State_only, "outcome.state_only");
      (RC.No_effect, "outcome.no_effect");
      (RC.Refused, "outcome.refused");
    ];
  (* 3. Batch 0's trials, one worker: each is timed through run_one,
     then re-driven without and with spans; passes repeat until the time
     is up. Counts come from the first pass only, so they depend on the
     seed alone. *)
  let sp = S.spans () in
  let run_one_ns = S.samples () and run_one_words = S.samples () in
  let spanned = S.samples () and plain_ns = S.samples () and traced_ns = S.samples () in
  let workers_1 = List.map (fun v -> (v, RC.make_worker ~pooled:true v)) versions in
  let redrivers = List.map (fun v -> (v, redriver v)) versions in
  let seed0 = batch_seed ~seed 0 in
  let attempted = ref 0 and failed = ref 0 and refused = ref 0 in
  let start = S.now_ns () in
  let pass = ref 0 in
  while S.keep_going (S.Seconds seconds) ~start !pass do
    List.iter
      (fun (v, ts) ->
        let w = List.assoc v workers_1 and rd = List.assoc v redrivers in
        List.iter
          (fun (t : RC.trial) ->
            let w0 = Gc.minor_words () in
            let t0 = S.now_ns () in
            let again = RC.run_one w ~seed:seed0 ~targets:RC.all_targets t.RC.index in
            let dt = S.elapsed_ns t0 in
            S.add run_one_words (Gc.minor_words () -. w0);
            S.add run_one_ns dt;
            let t1 = S.now_ns () in
            let plain = redrive rd t in
            S.add plain_ns (S.elapsed_ns t1);
            sp.S.spanned <- 0.;
            let t2 = S.now_ns () in
            let outcome, vs = redrive ~sp rd t in
            S.add traced_ns (S.elapsed_ns t2);
            S.add spanned sp.S.spanned;
            incr attempted;
            if again <> t || plain <> (outcome, vs) || outcome <> t.RC.outcome
               || vs <> t.RC.t_violations
            then incr failed;
            if !pass = 0 && outcome = RC.Refused then incr refused)
          ts)
      !sample;
    incr pass
  done;
  Pb_report.set_spans report sp;
  set "random_campaign.run_one_ns_p50" (Pb_report.of_samples run_one_ns);
  set "random_campaign.run_one_ns_p99" (Pb_report.percentile run_one_ns 0.99);
  set "random_campaign.run_one_words" (Pb_report.of_samples run_one_words);
  set "random_campaign.spanned_share" (Pb_report.exact (S.median spanned /. S.median run_one_ns));
  set "perfbench.trace_overhead_ns" (Pb_report.exact (S.median traced_ns -. S.median plain_ns));
  set "injector.refused" (Pb_report.exact (float_of_int !refused));
  Pb_report.info report "redrive_mismatches" (string_of_int !failed);
  Pb_report.info report "sharded_mismatches" (string_of_int !sharded_mismatches);
  (!attempted + (gc_sample_batches * batch_trials), !failed + (!sharded_mismatches * batch_trials), g)
