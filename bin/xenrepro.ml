(* The xenrepro command-line tool: run exploits, injections, campaigns
   and regenerate the paper's tables from the terminal. *)

open Cmdliner
module All = Ii_exploits.All_exploits

let version_conv =
  let parse s =
    match Version.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown Xen version %S (use 4.6, 4.8 or 4.13)" s))
  in
  Arg.conv (parse, fun ppf v -> Version.pp ppf v)

let version_arg =
  let doc = "Target Xen version (4.6, 4.8, 4.13)." in
  Arg.(value & opt version_conv Version.V4_6 & info [ "x"; "xen-version" ] ~docv:"VER" ~doc)

let use_case_arg =
  let doc =
    Printf.sprintf "Use case to run — a name (%s) or an XSA id like XSA-148."
      (String.concat ", " All.names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"USE-CASE" ~doc)

let verbose_arg =
  let doc = "Print transcripts and console output." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let backend_arg =
  let doc = "Hypervisor backend to drive (xen|kvm)." in
  Arg.(value & opt string "xen" & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let bad_backend b =
  `Error
    ( false,
      Printf.sprintf "unknown backend %S; available: %s" b
        (String.concat ", " (List.map fst Ii_backends.Backends.known)) )

let lookup_use_case name =
  match All.find name with
  | Some uc -> Ok uc
  | None ->
      Error
        (Printf.sprintf "unknown use case %S; available: %s" name
           (String.concat ", " All.names))

let print_row ~verbose (r : Campaign.result_row) =
  Printf.printf "use case:        %s\n" r.Campaign.r_use_case;
  Printf.printf "Xen version:     %s\n" (Version.to_string r.Campaign.r_version);
  Printf.printf "mode:            %s\n" (Campaign.mode_to_string r.Campaign.r_mode);
  (match r.Campaign.r_rc with
  | Some rc -> Printf.printf "return code:     %d\n" rc
  | None -> ());
  Printf.printf "erroneous state: %s\n" (if r.Campaign.r_state then "PRESENT (audited)" else "absent");
  (match r.Campaign.r_violations with
  | [] -> Printf.printf "security:        no violation (the system handled the state)\n"
  | vs ->
      Printf.printf "security violations:\n";
      List.iter (fun v -> Printf.printf "  - %s\n" (Monitor.violation_to_string v)) vs);
  if verbose then begin
    Printf.printf "\n--- transcript ---\n";
    List.iter print_endline r.Campaign.r_transcript;
    Printf.printf "\n--- erroneous-state evidence ---\n";
    List.iter print_endline r.Campaign.r_state_evidence
  end

let run_one mode name version verbose =
  match lookup_use_case name with
  | Error e -> `Error (false, e)
  | Ok uc ->
      print_row ~verbose (Campaign.run uc mode version);
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

let workers_arg =
  let doc =
    "Worker domains for sharded runs: a positive integer, or $(b,auto) to size to the \
     machine (never oversubscribes)."
  in
  Arg.(value & opt string "1" & info [ "w"; "workers" ] ~docv:"N|auto" ~doc)

let with_workers spec k =
  match Shard.workers_of_string spec with
  | Error e -> `Error (false, e)
  | Ok workers -> k workers

let domains_arg =
  let doc = "Concurrent guest domains on each testbed (>= 2: victim + attacker)." in
  Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)

let load_arg =
  let doc =
    "Deterministic background workload every guest domain runs while trials execute \
     (none|default|heavy)."
  in
  Arg.(value & opt string "none" & info [ "load" ] ~docv:"MIX" ~doc)

let with_load spec k =
  match Load_mix.of_string spec with
  | None ->
      `Error
        ( false,
          Printf.sprintf "unknown load mix %S; available: %s" spec
            (String.concat ", " (List.map Load_mix.to_string Load_mix.all)) )
  | Some load -> k load

let campaign_cmd =
  let doc = "Run the full evaluation campaign and print Table III." in
  let trials_arg =
    let doc =
      "Also run N randomized trials per version through the batching scheduler \
       (versions x trials flattened into one work queue) and print the outcome tally."
    in
    Arg.(value & opt int 0 & info [ "n"; "trials" ] ~docv:"N" ~doc)
  in
  let run_xen verbose workers domains load trials =
    let rows =
      Campaign.run_matrix ~workers ~domains ~load All.use_cases
        ~versions:Version.all
        ~modes:[ Campaign.Real_exploit; Campaign.Injection ]
    in
    print_endline (Campaign.table3 rows);
    print_newline ();
    print_endline (Campaign.telemetry_table rows);
    print_newline ();
    print_endline "RQ1 validation on Xen 4.6 (exploit vs injection):";
    List.iter
      (fun (name, st, viol) ->
        Printf.printf "  %-14s same erroneous state: %b   same violation class: %b\n" name st viol)
      (Campaign.validate_rq1 ~domains ~load All.use_cases);
    if verbose then begin
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "=== %s / %s / %s ===\n" r.Campaign.r_use_case
            (Version.to_string r.Campaign.r_version)
            (Campaign.mode_to_string r.Campaign.r_mode);
          List.iter print_endline r.Campaign.r_transcript;
          print_newline ())
        rows
    end;
    if trials > 0 then begin
      print_newline ();
      print_endline
        (Random_campaign.render (Campaign_scheduler.run ~workers ~trials Version.all))
    end
  in
  let run_kvm verbose domains load =
    let module KC = Ii_backends.Backends.Kvm_campaign in
    let rows =
      KC.run_matrix ~domains ~load All.kvm_use_cases
        ~versions:Ii_backends.Backend_kvm.configs
        ~modes:[ Campaign.Real_exploit; Campaign.Injection ]
    in
    print_endline (KC.table3 rows);
    print_newline ();
    print_endline (KC.telemetry_table rows);
    print_newline ();
    print_endline "RQ1 validation on KVM stock (exploit vs injection):";
    List.iter
      (fun (name, st, viol) ->
        Printf.printf "  %-14s same erroneous state: %b   same violation class: %b\n" name st viol)
      (KC.validate_rq1 ~domains ~load All.kvm_use_cases);
    if verbose then begin
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "=== %s / %s / %s ===\n" r.KC.r_use_case
            (Ii_backends.Backend_kvm.config_to_string r.KC.r_version)
            (Campaign.mode_to_string r.KC.r_mode);
          List.iter print_endline r.KC.r_transcript;
          print_newline ())
        rows
    end
  in
  let run verbose backend workers_spec domains load_spec trials =
    with_load load_spec (fun load ->
        match backend with
        | "xen" ->
            with_workers workers_spec (fun workers ->
                run_xen verbose workers domains load trials;
                `Ok ())
        | "kvm" ->
            run_kvm verbose domains load;
            `Ok ()
        | b -> bad_backend b)
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      ret
        (const run $ verbose_arg $ backend_arg $ workers_arg $ domains_arg $ load_arg
        $ trials_arg))

let tables_cmd =
  let doc = "Regenerate the paper's tables (I, II, III)." in
  let run () =
    print_endline (Ii_advisory.Corpus.table1 ());
    print_newline ();
    print_endline (Campaign.table2 All.use_cases);
    print_newline ();
    let rows =
      Campaign.run_matrix All.use_cases ~versions:Version.all
        ~modes:[ Campaign.Injection ]
    in
    print_endline (Campaign.table3 rows)
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ const ())

let advisory_cmd =
  let doc = "Inspect the advisory corpus and classifier." in
  let run () =
    print_endline (Ii_advisory.Corpus.table1 ());
    Printf.printf "\ncorpus: %d CVEs, %d classifications, classifier accuracy %.1f%%\n"
      Ii_advisory.Corpus.size Ii_advisory.Corpus.classifications
      (100. *. Ii_advisory.Classify.accuracy ())
  in
  Cmd.v (Cmd.info "advisory" ~doc) Term.(const run $ const ())

let console_cmd =
  let doc = "Run a use case and dump the Xen console (crash dumps etc.)." in
  let run name mode_str version =
    match lookup_use_case name with
    | Error e -> `Error (false, e)
    | Ok uc ->
        let mode =
          if mode_str = "exploit" then Campaign.Real_exploit else Campaign.Injection
        in
        let tb = Testbed.create version in
        if mode = Campaign.Injection then Injector.install tb.Testbed.hv;
        let attempt =
          match mode with
          | Campaign.Real_exploit -> uc.Campaign.run_exploit tb
          | Campaign.Injection -> uc.Campaign.run_injection tb
        in
        ignore attempt;
        List.iter print_endline (Hv.console_lines tb.Testbed.hv);
        `Ok ()
  in
  let mode_arg =
    Arg.(value & opt string "injection" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")
  in
  Cmd.v (Cmd.info "console" ~doc) Term.(ret (const run $ use_case_arg $ mode_arg $ version_arg))

let venom_cmd =
  let doc = "Run the VENOM device-model study (exploit vs injection across builds)." in
  let run () = print_endline (Ii_devicemodel.Venom_study.render (Ii_devicemodel.Venom_study.matrix ())) in
  Cmd.v (Cmd.info "venom" ~doc) Term.(const run $ const ())

let blk_cmd =
  let doc = "Run the block-backend study (off-by-one exploit vs injection over real grants)." in
  let run () = print_endline (Ii_devicemodel.Blk_study.render (Ii_devicemodel.Blk_study.matrix ())) in
  Cmd.v (Cmd.info "blk" ~doc) Term.(const run $ const ())

let fuzz_cmd =
  let doc =
    "Randomized erroneous-state campaign (fuzz the injector, §IV-C) across all versions."
  in
  let seed_arg =
    Arg.(value & opt int64 7L & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Campaign PRNG seed.")
  in
  let trials_arg =
    Arg.(value & opt int 200 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Trials per version.")
  in
  let flips_arg =
    Arg.(value & flag & info [ "soft-errors" ] ~doc:"Include accidental single-bit flips.")
  in
  let run seed trials flips verbose workers_spec =
   match Shard.workers_of_string workers_spec with
   | Error e ->
       prerr_endline e;
       exit 2
   | Ok workers ->
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

let bench_cmd =
  let doc =
    "Campaign scaling bench: time the batching scheduler (warm pools, COW forks, one \
     flattened work queue) against the sequential reference at each worker count."
  in
  let trials_arg =
    Arg.(value & opt int 2000 & info [ "n"; "trials" ] ~docv:"N" ~doc:"Trials per run.")
  in
  let sweep_arg =
    let doc = "Comma-separated worker counts to sweep (each a positive integer or $(b,auto))." in
    Arg.(value & opt string "1,auto" & info [ "w"; "workers" ] ~docv:"LIST" ~doc)
  in
  let streamed_arg =
    Arg.(value & flag & info [ "streamed" ]
           ~doc:"Use the streaming scheduler (flat memory; tallies only, no trial rows).")
  in
  let seconds f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run trials sweep_spec streamed =
    let specs = String.split_on_char ',' sweep_spec in
    let parsed = List.map Shard.workers_of_string specs in
    match List.find_opt Result.is_error parsed with
    | Some (Error e) -> `Error (false, e)
    | _ ->
        let sweep =
          List.sort_uniq compare (List.filter_map Result.to_option parsed)
        in
        ignore (Testbed.create_pooled Version.V4_8) (* warm the pool *);
        let _, seq_s =
          seconds (fun () -> ignore (Random_campaign.run ~trials Version.V4_8))
        in
        Printf.printf "%d trials on 4.8; sequential reference (fresh boot): %.3f s\n\n" trials
          seq_s;
        Printf.printf "%8s %10s %12s %8s\n" "workers" "wall s" "trials/s" "speedup";
        List.iter
          (fun workers ->
            let _, s =
              seconds (fun () ->
                  if streamed then
                    ignore
                      (Campaign_scheduler.run_streamed ~trials ~workers [ Version.V4_8 ])
                  else ignore (Campaign_scheduler.run ~trials ~workers [ Version.V4_8 ]))
            in
            Printf.printf "%8d %10.3f %12.0f %7.2fx\n" workers s (float_of_int trials /. s)
              (seq_s /. s))
          sweep;
        `Ok ()
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(ret (const run $ trials_arg $ sweep_arg $ streamed_arg))

let cross_cmd =
  let doc = "Cross-system injection: the same IM into Xen and a KVM-style hypervisor (the cross-system scenario)." in
  let run () =
    Format.printf "%a@.@." Intrusion_model.pp_long Ii_exploits.Cross_system.im;
    print_endline (Ii_exploits.Cross_system.render (Ii_exploits.Cross_system.run ()))
  in
  Cmd.v (Cmd.info "cross" ~doc) Term.(const run $ const ())

let stats_cmd =
  let doc = "Run a use case and print a xentop-style host summary (domains, memory, hypercalls)." in
  let run name mode_str version =
    match lookup_use_case name with
    | Error e -> `Error (false, e)
    | Ok uc ->
        let mode = if mode_str = "exploit" then Campaign.Real_exploit else Campaign.Injection in
        let tb = Testbed.create version in
        if mode = Campaign.Injection then Injector.install tb.Testbed.hv;
        ignore
          (match mode with
          | Campaign.Real_exploit -> uc.Campaign.run_exploit tb
          | Campaign.Injection -> uc.Campaign.run_injection tb);
        Testbed.tick_all tb;
        let hv = tb.Testbed.hv in
        Printf.printf "xentop - Xen %s%s\n" (Version.to_string version)
          (if Hv.is_crashed hv then "   *** HOST CRASHED ***" else "");
        Printf.printf "free frames: %d / %d\n" (Phys_mem.free_frames hv.Hv.mem)
          (Phys_mem.total_frames hv.Hv.mem);
        Printf.printf "%-5s %-10s %8s %8s %6s\n" "DOMID" "NAME" "PAGES" "VCPURUNS" "PROCS";
        List.iter
          (fun k ->
            let d = Kernel.dom k in
            Printf.printf "%-5d %-10s %8d %8d %6d\n" d.Domain.id d.Domain.name
              (List.length (Domain.populated_pfns d))
              (Sched.runs_of hv.Hv.sched ~dom:d.Domain.id)
              (List.length (Process.list (Kernel.processes k))))
          (Testbed.kernels tb);
        Printf.printf "hypercalls (nr: calls):";
        List.iter (fun (n, c) -> Printf.printf " %d:%d" n c) (Hv.hypercall_stats hv);
        Printf.printf "   failed: %d\n" (Hv.hypercalls_failed hv);
        `Ok ()
  in
  let mode_arg =
    Arg.(value & opt string "injection" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ use_case_arg $ mode_arg $ version_arg))

let field_study_cmd =
  let doc = "Render the advisory field study and the risk-driven campaign plan." in
  let run () = print_endline (Ii_advisory.Field_study.render ()) in
  Cmd.v (Cmd.info "field-study" ~doc) Term.(const run $ const ())

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
  let mode_arg =
    Arg.(value & opt string "injection" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")
  in
  let seed_arg =
    let doc = "Campaign seed (echoed in the header; the trial itself is deterministic)." in
    Arg.(value & opt int64 7L & info [ "s"; "seed" ] ~docv:"SEED" ~doc)
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
  let mode_of_string = function
    | "exploit" -> Some Campaign.Real_exploit
    | "injection" -> Some Campaign.Injection
    | _ -> None
  in
  let run_kvm name mode json replay model =
    let module KT = Ii_backends.Backends.Kvm_trace in
    match All.find_kvm name with
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown KVM use case %S; available: %s" name
              (String.concat ", "
                 (List.map
                    (fun uc -> uc.Ii_backends.Backends.Kvm_campaign.uc_name)
                    All.kvm_use_cases)) )
    | Some uc ->
        let prepare =
          Option.map (fun m tb -> Ii_backends.Backend_kvm.set_cost_model tb m) model
        in
        let r = KT.record ?prepare uc mode Ii_backends.Backend_kvm.Stock in
        if json then print_string (KT.to_json r) else print_string (KT.render r);
        if replay then begin
          let o = KT.replay r in
          Printf.printf "replay: %d boundary events applied, %d records skipped\n"
            o.KT.rp_applied o.KT.rp_skipped;
          Printf.printf "final state %s\n"
            (if o.KT.rp_equal then "EQUIVALENT to the recording"
             else "DIVERGED from the recording");
          Printf.printf "virtual timestamps %s\n"
            (if o.KT.rp_vts_equal then "REPRODUCED byte-for-byte"
             else "DIVERGED from the recording");
          if not (o.KT.rp_equal && o.KT.rp_vts_equal) then exit 1
        end;
        `Ok ()
  in
  let run name mode_s seed version json replay cost_model backend =
    let model =
      match cost_model with
      | None -> Ok None
      | Some f -> Result.map Option.some (Vclock.Cost_model.load f)
    in
    match (model, mode_of_string mode_s, backend) with
    | Error e, _, _ -> `Error (false, "cost-model: " ^ e)
    | Ok _, None, _ -> `Error (false, Printf.sprintf "unknown mode %S (exploit|injection)" mode_s)
    | Ok model, Some mode, "kvm" -> run_kvm name mode json replay model
    | Ok model, Some mode, "xen" -> (
        match lookup_use_case name with
        | Error e -> `Error (false, e)
        | Ok uc ->
            let prepare = Option.map (fun m tb -> Substrate_xen.set_cost_model tb m) model in
            let r = Trace_driver.record ?prepare uc mode version in
            if json then print_string (Trace_driver.to_json r)
            else begin
              Printf.printf "seed: %Ld\n" seed;
              print_string (Trace_driver.render r)
            end;
            if replay then begin
              let o = Trace_driver.replay r in
              Printf.printf "replay: %d boundary events applied, %d records skipped\n"
                o.Trace_driver.rp_applied o.Trace_driver.rp_skipped;
              Printf.printf "final state %s\n"
                (if o.Trace_driver.rp_equal then "EQUIVALENT to the recording"
                 else "DIVERGED from the recording");
              Printf.printf "virtual timestamps %s\n"
                (if o.Trace_driver.rp_vts_equal then "REPRODUCED byte-for-byte"
                 else "DIVERGED from the recording");
              (* non-zero exit so CI can gate on replay + vclock
                 determinism together *)
              if not (o.Trace_driver.rp_equal && o.Trace_driver.rp_vts_equal) then exit 1
            end;
            `Ok ())
    | Ok _, Some _, b -> bad_backend b
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run $ uc_opt_arg $ mode_arg $ seed_arg $ version_arg $ json_arg $ replay_arg
       $ cost_model_arg $ backend_arg))

let vmi_cmd =
  let doc =
    "Run the VMI detector suite over every use case: coverage matrix, detection latencies \
     and the metrics registry. Exits non-zero when a use-case state escapes every detector \
     on a vulnerable version, or when a scan perturbs the machine."
  in
  let mode_arg =
    Arg.(value & opt string "injection" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")
  in
  let period_arg =
    Arg.(value & opt int 1 & info [ "p"; "period" ] ~docv:"N" ~doc:"Scan every N trial steps.")
  in
  let every_ns_arg =
    Arg.(
      value
      & opt (some int64) None
      & info [ "every-ns" ] ~docv:"NS"
          ~doc:
            "Rate-based scheduling: scan when $(docv) simulated ns have elapsed on the \
             machine's virtual clock (overrides $(b,--period)).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit per-trial latencies as JSON.") in
  let run_kvm mode period every_ns json =
    let module KC = Ii_backends.Backends.Kvm_campaign in
    let module KT = Ii_backends.Backends.Kvm_trace in
    let module KV = Ii_backends.Backends.Kvm_vmi in
    let ucs = All.kvm_use_cases in
    let registry = Metrics.create () in
    let trials = KV.coverage ~period ?every_ns ~registry ucs mode Ii_backends.Backend_kvm.Stock in
    if json then print_string (KV.to_json trials)
    else begin
      print_endline (KV.matrix_table trials);
      List.iter
        (fun t ->
          List.iter
            (fun (det, findings) ->
              Printf.printf "%s / %s:\n" t.KV.t_recording.KT.rec_use_case det;
              List.iter (fun f -> Printf.printf "  - %s\n" f) findings)
            t.KV.t_findings)
        trials;
      print_newline ();
      print_string (Metrics.render_prometheus registry)
    end;
    let failed = ref false in
    if mode = Campaign.Injection then
      List.iter
        (fun t ->
          if not (KV.covered t) then begin
            Printf.eprintf "vmi: %s escaped every detector\n" t.KV.t_recording.KT.rec_use_case;
            failed := true
          end)
        trials;
    List.iter
      (fun uc ->
        if not (KV.side_effect_free uc mode Ii_backends.Backend_kvm.Stock) then begin
          Printf.eprintf "vmi: detectors perturbed the %s trial\n" uc.KC.uc_name;
          failed := true
        end)
      ucs;
    if !failed then exit 1;
    `Ok ()
  in
  let run mode_s period every_ns version json backend =
    let mode =
      if mode_s = "exploit" then Campaign.Real_exploit else Campaign.Injection
    in
    if backend = "kvm" then run_kvm mode period every_ns json
    else if backend <> "xen" then bad_backend backend
    else begin
      let ucs = All.use_cases in
      let registry = Metrics.create () in
      let trials = Vmi_driver.coverage ~period ?every_ns ~registry ucs mode version in
      if json then print_string (Vmi_driver.to_json trials)
      else begin
        print_endline (Vmi_driver.matrix_table trials);
        List.iter
          (fun t ->
            List.iter
              (fun (det, findings) ->
                Printf.printf "%s / %s:\n" t.Vmi_driver.t_recording.Trace_driver.rec_use_case det;
                List.iter (fun f -> Printf.printf "  - %s\n" f) findings)
              t.Vmi_driver.t_findings)
          trials;
        print_newline ();
        print_string (Metrics.render_prometheus registry)
      end;
      (* CI gates: every injected state must be caught on the vulnerable
         version, and scans must never perturb the trial they observe. *)
      let failed = ref false in
      if version = Version.V4_6 && mode = Campaign.Injection then
        List.iter
          (fun t ->
            if not (Vmi_driver.covered t) then begin
              Printf.eprintf "vmi: %s escaped every detector\n"
                t.Vmi_driver.t_recording.Trace_driver.rec_use_case;
              failed := true
            end)
          trials;
      List.iter
        (fun uc ->
          if not (Vmi_driver.side_effect_free uc mode version) then begin
            Printf.eprintf "vmi: detectors perturbed the %s trial\n" uc.Campaign.uc_name;
            failed := true
          end)
        ucs;
      if !failed then exit 1;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "vmi" ~doc)
    Term.(
      ret
        (const run $ mode_arg $ period_arg $ every_ns_arg $ version_arg $ json_arg $ backend_arg))

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
  let gate eprint_name complete reports =
    let failed = ref false in
    List.iter
      (fun (name, ok) ->
        if not ok then begin
          Printf.eprintf "attribution: %s has a violation or finding with no origin\n" name;
          failed := true
        end)
      (List.map (fun r -> (eprint_name r, complete r)) reports);
    if !failed then exit 1
  in
  let run_kvm json dot =
    let module KA = Ii_backends.Backends.Kvm_attribution in
    let ucs = All.kvm_use_cases in
    let registry = Metrics.create () in
    let reports =
      KA.attribute_all ~registry ucs Campaign.Injection Ii_backends.Backend_kvm.Stock
    in
    if json then print_string (KA.to_json reports)
    else if dot then print_string (KA.to_dot reports)
    else begin
      print_endline (KA.table reports);
      print_string (Metrics.render_prometheus registry)
    end;
    gate (fun r -> r.KA.ar_use_case) KA.complete reports;
    `Ok ()
  in
  let run version json dot backend =
    if backend = "kvm" then run_kvm json dot
    else if backend <> "xen" then bad_backend backend
    else begin
      let ucs = All.use_cases in
      let registry = Metrics.create () in
      let reports = Attribution.attribute_all ~registry ucs Campaign.Injection version in
      if json then print_string (Attribution.to_json reports)
      else if dot then print_string (Attribution.to_dot reports)
      else begin
        print_endline (Attribution.table reports);
        print_string (Metrics.render_prometheus registry)
      end;
      gate (fun r -> r.Attribution.ar_use_case) Attribution.complete reports;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "attribution" ~doc)
    Term.(ret (const run $ version_arg $ json_arg $ dot_arg $ backend_arg))

let backends_cmd =
  let doc = "List the hypervisor backends the injection stack can drive." in
  let run () =
    List.iter
      (fun (name, desc) -> Printf.printf "%-6s %s\n" name desc)
      Ii_backends.Backends.known
  in
  Cmd.v (Cmd.info "backends" ~doc) Term.(const run $ const ())

let main_cmd =
  let doc = "intrusion injection for virtualized systems (DSN'23 reproduction)" in
  Cmd.group
    (Cmd.info "xenrepro" ~version:"1.0.0" ~doc)
    [ exploit_cmd; inject_cmd; campaign_cmd; tables_cmd; advisory_cmd; console_cmd; venom_cmd; blk_cmd; fuzz_cmd; bench_cmd; ims_cmd; defense_cmd; field_study_cmd; stats_cmd; cross_cmd; trace_cmd; vmi_cmd; attribution_cmd; backends_cmd; Scenario_cmd.cmd; Coverage_cmd.cmd ]

let () = exit (Cmd.eval main_cmd)
