(** Campaign orchestration: the experimental strategy of Fig 4.

    A {e use case} packages a third-party exploit together with the
    injection script that reproduces its erroneous state and the
    intrusion model both derive from. Running a use case on a pristine
    testbed in either mode yields a result row: did the erroneous state
    hold (audited against live machine state), and which security
    violations did the monitor observe?

    The engine is a functor over {!Substrate.S}, so the same
    orchestration runs unchanged on any backend; the toplevel of this
    module is the functor applied to {!Substrate_xen}, the default
    backend. The use cases themselves live in
    [ii_exploits] (Xen) and [ii_backends] (KVM) and plug in here — the
    campaign engine is exploit-agnostic, as an injection tool must
    be. *)

type mode = Real_exploit | Injection

let mode_to_string = function Real_exploit -> "exploit" | Injection -> "injection"
let scheduler_rounds = 3

let hypercall_name = function
  | 1 -> "mmu_update"
  | 3 -> "update_va_mapping"
  | 12 -> "memory_op"
  | 18 -> "console_io"
  | 20 -> "grant_table_op"
  | 32 -> "event_channel_op"
  | n when n = Injector.hypercall_number -> Injector.hypercall_name
  | n -> Printf.sprintf "hypercall_%d" n

module Make (B : Substrate.S) = struct
  (** Human form of a configuration for report headings ("Xen 4.6",
      "KVM stock"). *)
  let config_label c = B.config_heading ^ " " ^ B.config_to_string c
  type attempt = {
    transcript : string list;  (** guest/attacker console output *)
    states : B.state_spec list;  (** states this attempt should establish *)
    rc : int option;  (** injection-port return code if the attempt was refused *)
  }

  type use_case = {
    uc_name : string;  (** e.g. "XSA-212-crash" *)
    uc_xsa : string;
    uc_description : string;
    im : Intrusion_model.t;
    run_exploit : B.t -> attempt;
    run_injection : B.t -> attempt;
  }

  type result_row = {
    r_use_case : string;
    r_version : B.config;
    r_mode : mode;
    r_states : B.state_spec list;  (** the states the attempt declared *)
    r_state : bool;  (** every declared state holds (audited) *)
    r_audits : Erroneous_state.audit list;
        (** the trial's audit of each declared state, in [r_states]
            order *)
    r_violations : Monitor.violation list;
    r_domains : (string * Monitor.violation list) list;
        (** the same violations grouped per domain (host-level rows
            under ["host"]) — the per-domain blast radius *)
    r_transcript : string list;
    r_rc : int option;
    r_telemetry : Trace.telemetry;
        (** counter delta over the trial: hypercalls by number, faults,
            flushes, ... Derived from the always-on counters, so it is
            filled whether or not the trace ring is recording. *)
    r_vtime_ns : int64;
        (** virtual time the trial consumed (ns on the backend's
            deterministic {!Vclock}); 0 when the clock is detached *)
    r_backend : string;  (** {!B.name}, for cross-backend rows *)
    r_coverage : Coverage.map option;
        (** this trial's absolute coverage map (the collector is cleared
            at trial start), when one is attached to the testbed's
            trace; [None] otherwise — detached trials compare equal to
            pre-coverage rows *)
    r_cov_novelty : int;
        (** bits this trial added over the campaign's cumulative map so
            far; 0 outside [run_matrix ~coverage] (novelty is a
            campaign-order property, assigned by the deterministic fold
            over positional row order) *)
  }

  (* The pristine before-snapshot, one slot per worker domain. The
     state after [B.reset] (and the injector install) depends only on
     the testbed, so a trial on the testbed and in the mode of the last
     miss reuses the snapshot that miss took. Never with provenance
     attached: such a snapshot observes the bytes it reads.
     ([Ii_xen.Domain] shadows [Domain].) *)
  let pristine : (B.t * mode * B.snapshot) option Stdlib.Domain.DLS.key =
    Stdlib.Domain.DLS.new_key (fun () -> None)

  let before_snapshot tb mode =
    if Phys_mem.provenance (B.mem tb) <> None then B.snapshot tb
    else
      match Stdlib.Domain.DLS.get pristine with
      | Some (tb', mode', before) when tb' == tb && mode' = mode -> before
      | Some _ | None ->
          let before = B.snapshot tb in
          Stdlib.Domain.DLS.set pristine (Some (tb, mode, before));
          before

  (* The trial executor every driver runs: use-case cells, randomized
     trials, replays and the CLI's one-off runs. [act] brings the
     erroneous state about (inject or exploit, then activate; or
     re-drive a recorded boundary stream) and declares the states to
     audit. Everything around it is the same for every driver, so a
     replay's snapshots and audits land where the recording's did. *)
  let trial tb ~name mode config act =
    B.reset tb;
    if mode = Injection then B.install_injector tb;
    (* Telemetry comes only from the always-on counters, never the ring,
       so a trial's result is identical with recording on or off. *)
    let tr = B.trace tb in
    (* A trial's coverage map is absolute: clearing here (after reset +
       injector install) makes the map a pure function of the trial,
       independent of what the worker's testbed ran before — the
       property that keeps sharded ≡ sequential. *)
    let cov = Trace.coverage tr in
    (match cov with Some c -> Coverage.clear c | None -> ());
    let counters_before = Trace.telemetry tr in
    let vts_before = Trace.vts tr in
    let before = before_snapshot tb mode in
    let attempt = act tb in
    let r_audits = List.map (B.audit tb) attempt.states in
    let r_state = r_audits <> [] && List.for_all (fun a -> a.Erroneous_state.holds) r_audits in
    let after = B.snapshot tb in
    let tagged = B.violations_tagged ~before ~after in
    let r_violations = List.map snd tagged in
    let r_domains = Monitor.by_domain tagged in
    if Trace.recording tr then
      Trace.emit tr
        (Trace.Monitor_verdict
           { violations = List.length r_violations; classes = Monitor.class_mask r_violations });
    let r_coverage =
      match cov with
      | Some c ->
          List.iter
            (fun (dom, vs) ->
              List.iter
                (fun v -> Coverage.note_violation c ~cls:(Monitor.class_index v) ~domain:dom)
                vs)
            r_domains;
          Some (Coverage.snapshot c)
      | None -> None
    in
    {
      r_use_case = name;
      r_version = config;
      r_mode = mode;
      r_states = attempt.states;
      r_state;
      r_audits;
      r_violations;
      r_domains;
      r_transcript = attempt.transcript;
      r_rc = attempt.rc;
      r_telemetry = Trace.delta ~before:counters_before ~after:(Trace.telemetry tr);
      r_vtime_ns = Int64.sub (Trace.vts tr) vts_before;
      r_backend = B.name;
      r_coverage;
      r_cov_novelty = 0;
    }

  (* A use-case trial: the attempt, then [scheduler_rounds] rounds in
     which every domain runs (vDSO hooks, and thus installed backdoors,
     execute during normal scheduling), [observer] after each step.
     Without [~tb] the trial runs on a new fork from the warm pool. *)
  let run ?domains ?load ?tb ?observer uc mode version =
    let tb = match tb with Some tb -> tb | None -> B.create_pooled ?domains ?load version in
    let observe () = match observer with Some f -> f tb | None -> () in
    trial tb ~name:uc.uc_name mode version (fun tb ->
        let attempt =
          match mode with Real_exploit -> uc.run_exploit tb | Injection -> uc.run_injection tb
        in
        observe ();
        for _ = 1 to scheduler_rounds do
          B.tick_all tb;
          observe ()
        done;
        attempt)

  (* One testbed per configuration, forked from the warm template pool
     on first use and reset by every trial run on it: the per-worker
     table of [run_matrix] and {!Campaign_scheduler}. [coverage]
     attaches a collector to each; [trial] clears it per trial, so each
     row's map is absolute. *)
  let testbeds ?domains ?load ~coverage () =
    let tbs = Hashtbl.create 4 in
    fun config ->
      match Hashtbl.find_opt tbs config with
      | Some tb -> tb
      | None ->
          let tb = B.create_pooled ?domains ?load config in
          if coverage then Trace.set_coverage (B.trace tb) (Some (Coverage.create ()));
          Hashtbl.replace tbs config tb;
          tb

  let run_matrix ?workers ?domains ?load ?coverage ucs ~versions ~modes =
    (* One cell per (uc, version, mode), in that nesting order; cells are
       independent, so they shard: the flattened queue is dealt in chunks
       over one worker pool. Each worker keeps one testbed per version,
       forked copy-on-write from the warm template pool, and resets it
       between cells instead of re-booting, so a new (version x worker)
       testbed costs O(metadata) whatever the worker count. *)
    let cells =
      List.concat_map
        (fun uc ->
          List.concat_map (fun version -> List.map (fun mode -> (uc, version, mode)) modes) versions)
        ucs
    in
    let rows =
      Shard.map_init ?workers
        ~init:(testbeds ?domains ?load ~coverage:(coverage <> None))
        (fun testbed _ (uc, version, mode) -> run ~tb:(testbed version) uc mode version)
        cells
    in
    match coverage with
    | None -> rows
    | Some acc ->
        (* novelty is assigned here, never on the workers: the fold runs
           over positional row order (= input cell order), so the
           novelty sequence and the cumulative union are byte-identical
           whatever worker ran which cell *)
        List.map
          (fun r ->
            match r.r_coverage with
            | None -> r
            | Some m ->
                let n = Coverage.novelty m ~against:!acc in
                acc := Coverage.merge !acc m;
                { r with r_cov_novelty = n })
          rows

  let violated r = r.r_violations <> []

  (* RQ1 for one use case on [B.rq1_config]: both rows, and the two
     verdicts — the only place an exploit row is compared with an
     injection row (Fig 4 and the campaign's RQ1 lines print these). *)
  type rq1 = {
    rq1_exploit : result_row;
    rq1_injection : result_row;
    rq1_state : bool;  (** both attempts establish their erroneous state *)
    rq1_violation : bool;  (** the same violation classes *)
  }

  let validate_rq1 ?domains ?load ucs =
    let tb = B.create_pooled ?domains ?load B.rq1_config in
    List.map
      (fun uc ->
        let e = run ~tb uc Real_exploit B.rq1_config in
        let i = run ~tb uc Injection B.rq1_config in
        {
          rq1_exploit = e;
          rq1_injection = i;
          rq1_state = e.r_state && i.r_state;
          rq1_violation = Monitor.same_class e.r_violations i.r_violations;
        })
      ucs

  let table2 ucs =
    Report.table ~title:"TABLE II: Use case -> abusive functionality"
      ~header:[ "Use Case"; "Abusive Functionality" ]
      (List.map
         (fun uc ->
           [ uc.uc_name; Abusive_functionality.to_string uc.im.Intrusion_model.functionality ])
         ucs)

  let table3 rows =
    let injections = List.filter (fun r -> r.r_mode = Injection) rows in
    let use_cases = List.sort_uniq compare (List.map (fun r -> r.r_use_case) injections) in
    let versions = List.sort_uniq compare (List.map (fun r -> r.r_version) injections) in
    let cell uc version =
      match
        List.find_opt (fun r -> r.r_use_case = uc && r.r_version = version) injections
      with
      | None -> [ "?"; "?" ]
      | Some r ->
          [
            Report.check r.r_state;
            (if violated r then Report.check true
             else if r.r_state then Report.shield
             else "");
          ]
    in
    let header =
      "Use Case"
      :: List.concat_map
           (fun v ->
             [ Printf.sprintf "%s Err.State" (B.config_to_string v);
               Printf.sprintf "%s Sec.Viol." (B.config_to_string v) ])
           versions
    in
    let rows = List.map (fun uc -> uc :: List.concat_map (cell uc) versions) use_cases in
    Report.table
      ~title:
        "TABLE III: Results of the injection campaign (shield = erroneous state handled by the \
         system)"
      ~header rows

  let telemetry_table rows =
    let header =
      [
        "Use Case"; B.config_heading; "Mode"; "Dom"; "Viol"; B.port_heading; "Failed"; "Faults";
        "Flushes"; "Pg-type"; "Injector"; "VMI"; "VTime";
      ]
    in
    let body =
      List.concat_map
        (fun r ->
          let t = r.r_telemetry in
          let counters =
            [
              string_of_int (Trace.total_hypercalls t);
              string_of_int t.Trace.tm_hypercalls_failed;
              string_of_int t.Trace.tm_faults;
              string_of_int (t.Trace.tm_flushes + t.Trace.tm_invlpgs);
              string_of_int t.Trace.tm_page_type_changes;
              string_of_int t.Trace.tm_injector_accesses;
              Printf.sprintf "%d/%d" t.Trace.tm_vmi_scans t.Trace.tm_vmi_findings;
              (* per-trial virtual time, rendered in whole µs *)
              Printf.sprintf "%Ldus" (Int64.div r.r_vtime_ns 1000L);
            ]
          in
          let blank = List.map (fun _ -> "") counters in
          let prefix = [ r.r_use_case; B.config_to_string r.r_version; mode_to_string r.r_mode ] in
          (* one row per domain with violations; counters (which are
             per-trial, not per-domain) appear on the first row only *)
          match r.r_domains with
          | [] -> [ prefix @ [ "-"; "0" ] @ counters ]
          | doms ->
              List.mapi
                (fun i (dom, viols) ->
                  prefix
                  @ [ dom; string_of_int (List.length viols) ]
                  @ (if i = 0 then counters else blank))
                doms)
        rows
    in
    Report.table ~title:"Per-trial telemetry (counter deltas; one row per affected domain)"
      ~header body
end

(* The default instantiation, on the Xen substrate. [Make] is
   applicative, so [Campaign.result_row] and
   [Campaign.Make(Substrate_xen).result_row] are the same type. *)
include Make (Substrate_xen)
