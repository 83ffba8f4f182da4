(* The artefact runner: regenerates every table and figure of the
   paper's evaluation, printing the same rows the paper reports. Timing
   lives in perfbench/ (see perfbench/README.md).

   Usage:
     dune exec bench/main.exe              -- every artefact
     dune exec bench/main.exe table1       -- one artefact (table1..3, fig1..4, extensions)
*)

module All = Ii_exploits.All_exploits

let hr title =
  Printf.printf "\n==================== %s ====================\n\n" title

let table1 () =
  hr "TABLE I (abusive functionality study, §IV-D)";
  print_endline (Ii_advisory.Corpus.table1 ());
  Printf.printf "\ncorpus: %d CVEs, %d classifications; classifier accuracy %.1f%%\n"
    Ii_advisory.Corpus.size Ii_advisory.Corpus.classifications
    (100. *. Ii_advisory.Classify.accuracy ())

let table2 () =
  hr "TABLE II (use case -> abusive functionality, §VI-A)";
  print_endline (Campaign.table2 All.use_cases)

let injection_rows =
  lazy (Campaign.run_matrix All.use_cases ~versions:Version.all ~modes:[ Campaign.Injection ])

let table3 () =
  hr "TABLE III (injection campaign, §VII/§VIII)";
  print_endline (Campaign.table3 (Lazy.force injection_rows));
  print_endline "\nPaper: all eight Err.State cells check; 4.13 shields XSA-212-priv and";
  print_endline "XSA-182-test (different security level after the post-XSA-213 hardening).";
  print_newline ();
  print_endline (Campaign.telemetry_table (Lazy.force injection_rows))

let fig1 () =
  hr "FIG 1 (chain of dependability threats + extended AVI)";
  let final, trace = Avi.run Avi.Correct Avi.venom_scenario in
  List.iter (fun s -> Printf.printf "  -> %s\n" (Avi.state_to_string s)) trace;
  Printf.printf "final: %s\n" (Avi.state_to_string final);
  let _, handled_trace =
    Avi.run Avi.Correct
      [
        Avi.Introduce_vulnerability "XSA-133: FDC accepts over-long input buffers";
        Avi.Attack { exploit = "crafted kernel module floods the FDC FIFO"; activates = true };
        Avi.Error_handling "device-model handler validation";
      ]
  in
  print_endline "with error handling deployed:";
  List.iter (fun s -> Printf.printf "  -> %s\n" (Avi.state_to_string s)) handled_trace

let fig2 () =
  hr "FIG 2 (methodology key components, end to end)";
  (* one injection trial, narrated stage by stage from its result row *)
  let uc = Option.get (All.find "XSA-182-test") in
  let r = Campaign.run uc Campaign.Injection Version.V4_8 in
  let stage name lines =
    Printf.printf "== %s ==\n" name;
    List.iter (Printf.printf "   %s\n") lines
  in
  stage "intrusion-model" [ Format.asprintf "%a" Intrusion_model.pp uc.Campaign.im ];
  stage "injector" [ Printf.sprintf "hypercall %d installed" Injector.hypercall_number ];
  stage "erroneous-state" r.Campaign.r_transcript;
  stage "audit"
    (List.map2
       (fun s a ->
         Erroneous_state.describe s ^ if a.Erroneous_state.holds then ": present" else ": absent")
       r.Campaign.r_states r.Campaign.r_audits);
  stage "monitor"
    (match r.Campaign.r_violations with
    | [] -> [ "no security violation: the system handled the erroneous state" ]
    | vs -> List.map Monitor.violation_to_string vs);
  print_newline ()

let fig3 () =
  hr "FIG 3 (intrusion internal impact vs abusive-functionality abstraction)";
  let m = Weird_machine.xsa_example in
  let attack = [ "a"; "b"; "crafted-hypercall" ] in
  (match Weird_machine.run_concrete m attack with
  | Weird_machine.Erroneous_reached label ->
      Printf.printf "concrete machine: inputs %s reach erroneous state %S\n"
        (String.concat "," attack) label
  | Weird_machine.Running s -> Printf.printf "concrete machine stopped in state %d\n" s);
  (match Weird_machine.abstract m ~inputs:attack with
  | Some a ->
      Printf.printf "abstraction: abusive functionality over inputs %s -> %S\n"
        (String.concat "," a.Weird_machine.abusive_input) a.Weird_machine.erroneous_label
  | None -> print_endline "no abstraction (inputs benign)");
  let all_inputs =
    [ attack; [ "a" ]; [ "b"; "c" ]; [ "a"; "b"; "c"; "a"; "b"; "crafted-hypercall" ] ]
  in
  Printf.printf "equivalence over %d input sequences: %b\n" (List.length all_inputs)
    (List.for_all (fun inputs -> Weird_machine.equivalent m ~inputs) all_inputs)

let fig4 () =
  hr "FIG 4 (experimental validation strategy: exploit vs injection on 4.6)";
  Printf.printf "%-14s %-24s %-24s %s\n" "use case" "exploit violations" "injection violations"
    "equivalent";
  let cls r =
    match r.Campaign.r_violations with
    | [] -> "none"
    | vs ->
        String.concat "+"
          (List.sort_uniq compare
             (List.map
                (function
                  | Monitor.Hypervisor_crash _ -> "crash"
                  | Monitor.Privilege_escalation _ -> "privesc"
                  | Monitor.Unauthorized_disclosure _ -> "disclosure"
                  | Monitor.Integrity_violation _ -> "integrity"
                  | Monitor.Guest_crash _ -> "guest-crash"
                  | Monitor.Availability_degradation _ -> "availability")
                vs))
  in
  List.iter
    (fun q ->
      let e = q.Campaign.rq1_exploit in
      Printf.printf "%-14s %-24s %-24s %b\n" e.Campaign.r_use_case (cls e)
        (cls q.Campaign.rq1_injection)
        (q.Campaign.rq1_state && q.Campaign.rq1_violation))
    (Campaign.validate_rq1 All.use_cases)

let extensions () =
  hr "EXTENSIONS (beyond the paper's prototype)";
  print_endline
    (Random_campaign.render
       (Campaign_scheduler.run ~seed:7L ~trials:200 ~targets:Random_campaign.all_targets
          Version.all));
  print_newline ();
  print_endline (Ii_devicemodel.Blk_study.render (Ii_devicemodel.Blk_study.matrix ()));
  print_newline ();
  (* the management-interface IM in one paragraph *)
  let r =
    Campaign.trial (Testbed.create_pooled Version.V4_13) ~name:"xenstore-tamper"
      Campaign.Injection Version.V4_13 (fun tb ->
        Xenstore.inject_write tb.Testbed.hv.Hv.xenstore
          (Xenstore.domain_path (Kernel.domid tb.Testbed.victim) "memory/target")
          "40";
        Testbed.tick_all tb;
        { Campaign.transcript = []; states = []; rc = None })
  in
  print_endline "Management-interface IM (tampered memory/target, victim balloons itself):";
  List.iter
    (fun v -> Printf.printf "  violation: %s\n" (Monitor.violation_to_string v))
    r.Campaign.r_violations;
  print_newline ();
  print_endline (Ii_exploits.Defense_eval.render (Ii_exploits.Defense_eval.matrix ()));
  print_newline ();
  print_endline (Im_catalog.render ());
  print_newline ();
  print_endline (Ii_advisory.Field_study.render ());
  print_newline ();
  print_endline (Ii_exploits.Cross_system.render (Ii_exploits.Cross_system.run ()))

let artefacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("extensions", extensions);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: [ name ] when List.mem_assoc name artefacts -> (List.assoc name artefacts) ()
  | [ _ ] | _ :: [ "all" ] -> List.iter (fun (_, f) -> f ()) artefacts
  | _ ->
      prerr_endline "usage: main.exe [all|table1|table2|table3|fig1|fig2|fig3|fig4|extensions]";
      exit 2
