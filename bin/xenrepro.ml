(* The xenrepro command-line tool: run exploits, injections, campaigns
   and the engine's observers from the terminal. The paper's tables and
   figures are bench/main.exe's. *)

open Cmdliner
open Cli

module Xen = Drivers (All.Xen)

(* -x for the Xen-only commands, parsed like every other backend's *)
let version_arg = Term.(term_result' (const Xen.config $ config_opt [ All.xen ]))

let use_case_arg =
  let doc =
    Printf.sprintf "Use case to run — a name (%s) or an XSA id like XSA-148."
      (String.concat ", " All.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"USE-CASE" ~doc)

let run_one mode name version verbose =
  match Xen.use_case name with
  | Error e -> `Error (false, e)
  | Ok uc ->
      Xen.print_row ~verbose ~evidence:true (Xen.C.run uc mode version);
      `Ok ()

let exploit_cmd =
  let doc = "Run a third-party exploit PoC against a simulated Xen version." in
  Cmd.v
    (Cmd.info "exploit" ~doc)
    Term.(ret (const (run_one Campaign.Real_exploit) $ use_case_arg $ version_arg $ verbose_arg))

let inject_cmd =
  let doc =
    "Reproduce a use case's erroneous state with the intrusion injector (arbitrary_access)."
  in
  Cmd.v
    (Cmd.info "inject" ~doc)
    Term.(ret (const (run_one Campaign.Injection) $ use_case_arg $ version_arg $ verbose_arg))

let campaign_cmd =
  let doc = "Run the full evaluation campaign and print Table III." in
  let run verbose (module K : All.BACKEND) workers domains load =
    let module D = Drivers (K) in
    let rows =
      D.C.run_matrix ~workers ~domains ~load K.use_cases ~versions:D.B.configs
        ~modes:[ Campaign.Real_exploit; Campaign.Injection ]
    in
    print_endline (D.C.table3 rows);
    print_newline ();
    print_endline (D.C.telemetry_table rows);
    print_newline ();
    Printf.printf "RQ1 validation on %s (exploit vs injection):\n"
      (D.C.config_label D.B.rq1_config);
    List.iter
      (fun q ->
        Printf.printf "  %-14s same erroneous state: %b   same violation class: %b\n"
          q.D.C.rq1_exploit.D.C.r_use_case q.D.C.rq1_state q.D.C.rq1_violation)
      (D.C.validate_rq1 ~domains ~load K.use_cases);
    if verbose then begin
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "=== %s / %s / %s ===\n" r.D.C.r_use_case
            (D.B.config_to_string r.D.C.r_version)
            (Campaign.mode_to_string r.D.C.r_mode);
          List.iter print_endline r.D.C.r_transcript;
          print_newline ())
        rows
    end
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(const run $ verbose_arg $ backend $ workers_arg $ domains_arg $ load_arg)

(* Run a use case's attempt as one trial on a pooled Xen testbed, for
   the command that reads Xen host state afterwards. *)
let run_xen name mode version k =
  match Xen.use_case name with
  | Error e -> `Error (false, e)
  | Ok uc ->
      let tb = Testbed.create_pooled version in
      let attempt =
        match mode with
        | Campaign.Real_exploit -> uc.Xen.C.run_exploit
        | Campaign.Injection -> uc.Xen.C.run_injection
      in
      ignore (Xen.C.trial tb ~name:uc.Xen.C.uc_name mode version attempt);
      k tb;
      `Ok ()

let console_cmd =
  let doc =
    "Run a use case, dump the Xen console (crash dumps etc.), then print a xentop-style host \
     summary (domains, memory, hypercalls)."
  in
  let run name mode version =
    run_xen name mode version (fun tb ->
        let hv = tb.Testbed.hv in
        List.iter print_endline (Hv.console_lines hv);
        Testbed.tick_all tb;
        Printf.printf "xentop - Xen %s%s\n" (Version.to_string version)
          (if Hv.is_crashed hv then "   *** HOST CRASHED ***" else "");
        Printf.printf "free frames: %d / %d\n" (Phys_mem.free_frames hv.Hv.mem)
          (Phys_mem.total_frames hv.Hv.mem);
        Printf.printf "%-5s %-10s %8s %8s %6s\n" "DOMID" "NAME" "PAGES" "VCPURUNS" "PROCS";
        List.iter
          (fun k ->
            let d = Kernel.dom k in
            Printf.printf "%-5d %-10s %8d %8d %6d\n" d.Domain.id d.Domain.name
              (Domain.populated_count d)
              (Sched.runs_of hv.Hv.sched ~dom:d.Domain.id)
              (List.length (Process.list (Kernel.processes k))))
          (Testbed.kernels tb);
        let tm = Trace.telemetry hv.Hv.trace in
        Printf.printf "hypercalls (nr: calls):";
        List.iter (fun (n, c) -> Printf.printf " %d:%d" n c) tm.Trace.tm_hypercalls;
        Printf.printf "   failed: %d\n" tm.Trace.tm_hypercalls_failed)
  in
  Cmd.v (Cmd.info "console" ~doc) Term.(ret (const run $ use_case_arg $ mode_arg $ version_arg))

let fuzz_cmd =
  let doc =
    "Randomized erroneous-state campaign (fuzz the injector, §IV-C) across all versions."
  in
  let seed_arg =
    Arg.(value & opt int64 7L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign PRNG seed.")
  in
  let trials_arg =
    Arg.(value & opt (at_least 1) 200 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Trials per version.")
  in
  let flips_arg =
    Arg.(value & flag & info [ "soft-errors" ] ~doc:"Include accidental single-bit flips.")
  in
  let run seed trials flips verbose workers =
    let targets =
      if flips then Random_campaign.all_targets else Random_campaign.intrusion_targets
    in
    let summaries = Campaign_scheduler.run ~seed ~trials ~targets ~workers Version.all in
    print_endline (Random_campaign.render summaries);
    if verbose then
      List.iter
        (fun s ->
          Printf.printf "\n--- Xen %s: noteworthy trials ---\n"
            (Version.to_string s.Random_campaign.s_version);
          List.iter
            (fun t ->
              if t.Random_campaign.outcome <> Random_campaign.State_only
                 && t.Random_campaign.outcome <> Random_campaign.No_effect
              then
                Printf.printf "trial %3d %-20s addr=0x%Lx -> %s%s\n" t.Random_campaign.index
                  (Random_campaign.target_to_string t.Random_campaign.target)
                  t.Random_campaign.t_addr
                  (Random_campaign.outcome_to_string t.Random_campaign.outcome)
                  (match t.Random_campaign.t_violations with
                  | [] -> ""
                  | vs ->
                      " [" ^ String.concat "; " (List.map Monitor.violation_to_string vs) ^ "]"))
            s.Random_campaign.trials)
        summaries
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const run $ seed_arg $ trials_arg $ flips_arg $ verbose_arg $ workers_arg)

let cross_cmd =
  let doc = "Cross-system injection: the same IM into Xen and a KVM-style hypervisor (the cross-system scenario)." in
  let run () =
    Format.printf "%a@.@." Intrusion_model.pp_long Ii_exploits.Cross_system.im;
    print_endline (Ii_exploits.Cross_system.render (Ii_exploits.Cross_system.run ()))
  in
  Cmd.v (Cmd.info "cross" ~doc) Term.(const run $ const ())

let defense_cmd =
  let doc =
    "Evaluate the page-table integrity guard with injected erroneous states."
  in
  let run version =
    print_endline (Ii_exploits.Defense_eval.render (Ii_exploits.Defense_eval.matrix ~version ()))
  in
  Cmd.v (Cmd.info "defense" ~doc) Term.(const run $ version_arg)

let ims_cmd =
  let doc = "List the intrusion-model catalog and injector coverage." in
  let run verbose =
    print_endline (Im_catalog.render ());
    if verbose then
      List.iter
        (fun e ->
          List.iter
            (fun m -> Format.printf "@.%a@." Intrusion_model.pp_long m)
            e.Im_catalog.models)
        Im_catalog.catalog
  in
  Cmd.v (Cmd.info "ims" ~doc) Term.(const run $ verbose_arg)

let trace_cmd =
  let doc =
    "Record a use case with the event tracer; print (or replay) the trace."
  in
  let uc_opt_arg =
    let doc =
      Printf.sprintf "Use case to record — a name (%s) or an XSA id like XSA-148."
        (String.concat ", " All.names)
    in
    Arg.(required & opt (some string) None & info [ "use-case" ] ~docv:"USE-CASE" ~doc)
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the recording as JSON.") in
  let replay_arg =
    Arg.(value & flag & info [ "replay" ] ~doc:"Replay the recording and check final-state equivalence.")
  in
  let cost_model_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "cost-model" ] ~docv:"FILE"
          ~doc:
            "Load per-operation virtual-clock costs from $(docv) (one 'key = ns' per line, \
             '#' comments); unknown keys keep their defaults out — the loader rejects them.")
  in
  let run name mode config json replay cost_model (module K : All.BACKEND) =
    let module D = Drivers (K) in
    let model =
      match cost_model with
      | None -> Ok None
      | Some f -> Result.map Option.some (Vclock.Cost_model.load f)
    in
    match (model, D.config config, D.use_case name) with
    | Error e, _, _ -> `Error (false, "cost-model: " ^ e)
    | _, Error e, _ | _, _, Error e -> `Error (false, e)
    | Ok model, Ok config, Ok uc ->
        let prepare =
          Option.map (fun m tb -> Vclock.set_model (Trace.vclock (D.B.trace tb)) m) model
        in
        let r = D.T.record ?prepare uc mode config in
        if json then print_endline (D.T.to_json r) else print_string (D.T.render r);
        if replay then begin
          let o = D.T.replay r in
          Printf.printf "replay: %d boundary events applied, %d records skipped\n"
            o.D.T.rp_applied o.D.T.rp_skipped;
          Printf.printf "final state %s\n"
            (if o.D.T.rp_equal then "EQUIVALENT to the recording"
             else "DIVERGED from the recording");
          Printf.printf "virtual timestamps %s\n"
            (if o.D.T.rp_vts_equal then "REPRODUCED byte-for-byte"
             else "DIVERGED from the recording");
          (* non-zero exit so CI can gate on replay + vclock
             determinism together *)
          if not (o.D.T.rp_equal && o.D.T.rp_vts_equal) then exit 1
        end;
        `Ok ()
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ uc_opt_arg $ mode_arg $ config_arg $ json_arg $ replay_arg
       $ cost_model_arg $ backend))

let vmi_cmd =
  let doc =
    "Run the VMI detector suite over every use case: coverage matrix, detection latencies \
     and the metrics registry. Exits non-zero when a use-case state escapes every detector \
     on a vulnerable version, or when a scan perturbs the machine."
  in
  let every_ns_arg =
    Arg.(
      value
      & opt (some (at_least64 1L)) None
      & info [ "every-ns" ] ~docv:"NS"
          ~doc:
            "Rate-based scheduling: scan when $(docv) simulated ns have elapsed on the \
             machine's virtual clock (default: scan at every trial step).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit per-trial latencies as JSON.") in
  let run mode every_ns config json (module K : All.BACKEND) =
    let module D = Drivers (K) in
    match D.config config with
    | Error e -> `Error (false, e)
    | Ok config ->
        let registry = Metrics.create () in
        let trials = D.V.coverage ?every_ns ~registry K.use_cases mode config in
        let name t = t.D.V.t_recording.D.T.rec_use_case in
        if json then print_endline (D.V.to_json trials)
        else begin
          print_endline (D.V.matrix_table trials);
          List.iter
            (fun t ->
              List.iter
                (fun (det, findings) ->
                  Printf.printf "%s / %s:\n" (name t) det;
                  List.iter (fun f -> Printf.printf "  - %s\n" f) findings)
                t.D.V.t_findings)
            trials;
          print_newline ();
          print_string (Metrics.render_prometheus registry)
        end;
        (* CI gates: every injected state must be caught on the vulnerable
           configuration, and scans must never perturb the trial they observe. *)
        let failed = ref false in
        if config = D.B.rq1_config && mode = Campaign.Injection then
          List.iter
            (fun t ->
              if not (D.V.covered t) then begin
                Printf.eprintf "vmi: %s escaped every detector\n" (name t);
                failed := true
              end)
            trials;
        List.iter
          (fun uc ->
            if not (D.V.side_effect_free uc mode config) then begin
              Printf.eprintf "vmi: detectors perturbed the %s trial\n" uc.D.C.uc_name;
              failed := true
            end)
          K.use_cases;
        if !failed then exit 1;
        `Ok ()
  in
  Cmd.v (Cmd.info "vmi" ~doc)
    Term.(
      ret (const run $ mode_arg $ every_ns_arg $ config_arg $ json_arg $ backend))

let attribution_cmd =
  let doc =
    "Run every use case with byte-granular provenance attached and attribute each security \
     violation and VMI finding back to its originating action. Exits non-zero when any \
     violation or finding resolves to an empty origin set."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the attribution reports (rows + causal graph) as JSON.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the causal graphs as Graphviz DOT.")
  in
  let run config json dot (module K : All.BACKEND) =
    let module D = Drivers (K) in
    match D.config config with
    | Error e -> `Error (false, e)
    | Ok config ->
        let registry = Metrics.create () in
        let reports = D.A.attribute_all ~registry K.use_cases Campaign.Injection config in
        if json then print_endline (D.A.to_json reports)
        else if dot then print_string (D.A.to_dot reports)
        else begin
          print_endline (D.A.table reports);
          print_string (Metrics.render_prometheus registry)
        end;
        let complete = List.map (fun r -> (r.D.A.ar_use_case, D.A.complete r)) reports in
        List.iter
          (fun (name, ok) ->
            if not ok then
              Printf.eprintf "attribution: %s has a violation or finding with no origin\n" name)
          complete;
        if not (List.for_all snd complete) then exit 1;
        `Ok ()
  in
  Cmd.v (Cmd.info "attribution" ~doc)
    Term.(ret (const run $ config_arg $ json_arg $ dot_arg $ backend))

let backends_cmd =
  let doc = "List the hypervisor backends the injection stack can drive." in
  let run () =
    List.iter
      (fun (module K : All.BACKEND) ->
        Printf.printf "%-6s %s\n" K.Ops.B.name K.Ops.B.description)
      All.backends
  in
  Cmd.v (Cmd.info "backends" ~doc) Term.(const run $ const ())

let main_cmd =
  let doc = "intrusion injection for virtualized systems (DSN'23 reproduction)" in
  Cmd.group
    (Cmd.info "xenrepro" ~version:"1.0.0" ~doc)
    [ exploit_cmd; inject_cmd; campaign_cmd; console_cmd; fuzz_cmd; ims_cmd; defense_cmd; cross_cmd; trace_cmd; vmi_cmd; attribution_cmd; backends_cmd; Scenario_cmd.cmd; Coverage_cmd.cmd ]

let () = exit (Cmd.eval main_cmd)
