(* The scenario subcommand: the .scn corpus as first-class input —
   list, check, compile, disassemble, run and gate use cases that are
   loadable data instead of OCaml modules. *)

open Cmdliner
module XV = Scn_vm.Make (Ii_exploits.Scenario_xen)
module KV = Scn_vm.Make (Ii_backends.Scenario_kvm)
module KC = Ii_backends.Backends.Kvm_campaign

let backend_to_string = function
  | Scn_bytecode.Any -> "any"
  | Scn_bytecode.Xen_only -> "xen"
  | Scn_bytecode.Kvm_only -> "kvm"

let load_all files =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match Scn_loader.load_file f with
        | Ok p -> go ((f, p) :: acc) rest
        | Error e -> Error e)
  in
  go [] files

(* Load-time gate: a program is checked against the action table of
   every backend its header admits. *)
let check_errors (file, p) =
  let checks =
    match Scn_bytecode.backend p with
    | Scn_bytecode.Xen_only -> [ ("xen", XV.check p) ]
    | Scn_bytecode.Kvm_only -> [ ("kvm", KV.check p) ]
    | Scn_bytecode.Any -> [ ("xen", XV.check p); ("kvm", KV.check p) ]
  in
  List.filter_map
    (fun (b, r) ->
      match r with
      | Ok () -> None
      | Error msg -> Some (Printf.sprintf "%s [%s]: %s" file b msg))
    checks

let jstr s = "\"" ^ Metrics.json_escape s ^ "\""
let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

(* --- scenario list ------------------------------------------------------- *)

let corpus_files dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
      let files =
        Array.to_list entries
        |> List.filter (fun f ->
               Filename.check_suffix f ".scn" || Filename.check_suffix f ".scnc")
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      Ok files

let list_cmd =
  let doc = "List the scenarios in a corpus directory." in
  let dir_arg =
    Arg.(value & pos 0 dir "corpus" & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the listing as JSON.") in
  let run dir json =
    match corpus_files dir with
    | Error e -> `Error (false, e)
    | Ok files -> (
        match load_all files with
        | Error e -> `Error (false, e)
        | Ok progs ->
            if json then
              print_endline
                (jlist
                   (fun (f, p) ->
                     Printf.sprintf
                       "{\"file\":%s,\"name\":%s,\"xsa\":%s,\"backend\":%s,\"instructions\":%d,\"expect\":%s}"
                       (jstr f)
                       (jstr (Scn_bytecode.name p))
                       (jstr (Scn_bytecode.xsa p))
                       (jstr (backend_to_string (Scn_bytecode.backend p)))
                       (Array.length p.Scn_bytecode.exploit
                       + Array.length p.Scn_bytecode.inject)
                       (jlist jstr (Scn_bytecode.expected_violations p)))
                   progs)
            else begin
              Printf.printf "%-14s %-8s %-7s %6s  %-22s %s\n" "NAME" "XSA" "BACKEND"
                "INSTRS" "EXPECT" "FILE";
              List.iter
                (fun (f, p) ->
                  Printf.printf "%-14s %-8s %-7s %6d  %-22s %s\n" (Scn_bytecode.name p)
                    (Scn_bytecode.xsa p)
                    (backend_to_string (Scn_bytecode.backend p))
                    (Array.length p.Scn_bytecode.exploit
                    + Array.length p.Scn_bytecode.inject)
                    (String.concat "," (Scn_bytecode.expected_violations p))
                    f)
                progs
            end;
            `Ok ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const run $ dir_arg $ json_arg))

(* --- scenario check ------------------------------------------------------ *)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files (.scn or .scnc).")

let check_cmd =
  let doc = "Parse, compile and gate scenarios against the backend action tables." in
  let run files =
    match load_all files with
    | Error e -> `Error (false, e)
    | Ok progs -> (
        match List.concat_map check_errors progs with
        | [] ->
            List.iter
              (fun (f, p) ->
                Printf.printf "%s: %s OK (%d instructions)\n" f (Scn_bytecode.name p)
                  (Array.length p.Scn_bytecode.exploit
                  + Array.length p.Scn_bytecode.inject))
              progs;
            `Ok ()
        | errs ->
            List.iter prerr_endline errs;
            `Error (false, Printf.sprintf "%d scenario(s) failed the load-time check" (List.length errs)))
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ files_arg))

(* --- scenario compile / disasm ------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario file (.scn or .scnc).")

let compile_cmd =
  let doc = "Compile a scenario to flat bytecode (.scnc)." in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output path.")
  in
  let run file out =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p ->
        let out =
          match out with
          | Some o -> o
          | None -> Filename.remove_extension file ^ ".scnc"
        in
        Scn_loader.save_bytecode out p;
        Printf.printf "%s: %s -> %s (%d bytes)\n" file (Scn_bytecode.name p) out
          (String.length (Scn_bytecode.encode p));
        `Ok ()
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(ret (const run $ file_arg $ out_arg))

let disasm_cmd =
  let doc = "Disassemble a scenario back to canonical surface text." in
  let run file =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p ->
        print_string (Scn_disasm.disasm p);
        `Ok ()
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(ret (const run $ file_arg))

(* --- scenario run -------------------------------------------------------- *)

let modes_of_string = function
  | "exploit" -> Some [ Campaign.Real_exploit ]
  | "injection" -> Some [ Campaign.Injection ]
  | "both" -> Some [ Campaign.Real_exploit; Campaign.Injection ]
  | _ -> None

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N"
        ~doc:"Concurrent guest domains on the testbed (>= 2: victim + attacker).")

let load_arg =
  Arg.(
    value & opt string "none"
    & info [ "load" ] ~docv:"MIX"
        ~doc:"Deterministic background workload mix every guest runs (none|default|heavy).")

let row_json ~version r =
  Printf.sprintf
    "{\"use_case\":%s,\"version\":%s,\"mode\":%s,\"rc\":%s,\"state\":%b,\"violations\":%s,\"transcript\":%s}"
    (jstr r.Campaign.r_use_case) (jstr version)
    (jstr (Campaign.mode_to_string r.Campaign.r_mode))
    (match r.Campaign.r_rc with Some rc -> string_of_int rc | None -> "null")
    r.Campaign.r_state
    (jlist (fun v -> jstr (Monitor.violation_to_string v)) r.Campaign.r_violations)
    (jlist jstr r.Campaign.r_transcript)

let print_xen_row ~verbose (r : Campaign.result_row) =
  Printf.printf "use case:        %s\n" r.Campaign.r_use_case;
  Printf.printf "Xen version:     %s\n" (Version.to_string r.Campaign.r_version);
  Printf.printf "mode:            %s\n" (Campaign.mode_to_string r.Campaign.r_mode);
  (match r.Campaign.r_rc with
  | Some rc -> Printf.printf "return code:     %d\n" rc
  | None -> ());
  Printf.printf "erroneous state: %s\n"
    (if r.Campaign.r_state then "PRESENT (audited)" else "absent");
  (match r.Campaign.r_violations with
  | [] -> Printf.printf "security:        no violation (the system handled the state)\n"
  | vs ->
      Printf.printf "security violations:\n";
      List.iter (fun v -> Printf.printf "  - %s\n" (Monitor.violation_to_string v)) vs);
  if verbose then begin
    Printf.printf "\n--- transcript ---\n";
    List.iter print_endline r.Campaign.r_transcript
  end;
  print_newline ()

let print_kvm_row ~verbose (r : KC.result_row) =
  Printf.printf "use case:        %s\n" r.KC.r_use_case;
  Printf.printf "KVM build:       %s\n"
    (Ii_backends.Backend_kvm.config_to_string r.KC.r_version);
  Printf.printf "mode:            %s\n" (Campaign.mode_to_string r.KC.r_mode);
  (match r.KC.r_rc with
  | Some rc -> Printf.printf "return code:     %d\n" rc
  | None -> ());
  Printf.printf "erroneous state: %s\n"
    (if r.KC.r_state then "PRESENT (audited)" else "absent");
  (match r.KC.r_violations with
  | [] -> Printf.printf "security:        no violation (the system handled the state)\n"
  | vs ->
      Printf.printf "security violations:\n";
      List.iter (fun v -> Printf.printf "  - %s\n" (Monitor.violation_to_string v)) vs);
  if verbose then begin
    Printf.printf "\n--- transcript ---\n";
    List.iter print_endline r.KC.r_transcript
  end;
  print_newline ()

let kvm_row_json (r : KC.result_row) =
  Printf.sprintf
    "{\"use_case\":%s,\"version\":%s,\"mode\":%s,\"rc\":%s,\"state\":%b,\"violations\":%s,\"transcript\":%s}"
    (jstr r.KC.r_use_case)
    (jstr (Ii_backends.Backend_kvm.config_to_string r.KC.r_version))
    (jstr (Campaign.mode_to_string r.KC.r_mode))
    (match r.KC.r_rc with Some rc -> string_of_int rc | None -> "null")
    r.KC.r_state
    (jlist (fun v -> jstr (Monitor.violation_to_string v)) r.KC.r_violations)
    (jlist jstr r.KC.r_transcript)

(* The concrete backend a run uses: the header's constraint wins; a
   portable (any) scenario follows --backend. *)
let effective_backend p backend_s =
  match (Scn_bytecode.backend p, backend_s) with
  | Scn_bytecode.Xen_only, ("xen" | "") -> Ok `Xen
  | Scn_bytecode.Kvm_only, ("kvm" | "") -> Ok `Kvm
  | Scn_bytecode.Any, ("xen" | "") -> Ok `Xen
  | Scn_bytecode.Any, "kvm" -> Ok `Kvm
  | tag, b ->
      Error
        (Printf.sprintf "scenario %s is %s-only; it cannot run on backend %S"
           (Scn_bytecode.name p)
           (backend_to_string tag)
           b)

let run_cmd =
  let doc = "Execute a compiled scenario in the bytecode VM against a backend." in
  let backend_arg =
    Arg.(value & opt string "" & info [ "b"; "backend" ] ~docv:"BACKEND"
           ~doc:"Backend for portable scenarios (xen|kvm); defaults to the header's constraint.")
  in
  let mode_arg =
    Arg.(value & opt string "both" & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection|both.")
  in
  let version_arg =
    let parse s =
      match Version.of_string s with
      | Some v -> Ok v
      | None -> Error (`Msg (Printf.sprintf "unknown Xen version %S (use 4.6, 4.8 or 4.13)" s))
    in
    let vconv = Arg.conv (parse, fun ppf v -> Version.pp ppf v) in
    Arg.(value & opt vconv Version.V4_6 & info [ "x"; "xen-version" ] ~docv:"VER"
           ~doc:"Target Xen version (4.6, 4.8, 4.13).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit result rows as JSON.") in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print transcripts.") in
  let run file backend_s mode_s version domains load_s json verbose =
    match Load_mix.of_string load_s with
    | None -> `Error (false, Printf.sprintf "unknown load mix %S (none|default|heavy)" load_s)
    | Some load -> (
        match Scn_loader.load_file file with
        | Error e -> `Error (false, e)
        | Ok p -> (
            match modes_of_string mode_s with
            | None ->
                `Error (false, Printf.sprintf "unknown mode %S (exploit|injection|both)" mode_s)
            | Some modes -> (
                match effective_backend p backend_s with
                | Error e -> `Error (false, e)
                | Ok `Xen -> (
                    match XV.check p with
                    | Error e -> `Error (false, e)
                    | Ok () ->
                        let uc = XV.use_case p in
                        let rows =
                          List.map (fun m -> Campaign.run ~domains ~load uc m version) modes
                        in
                        if json then
                          print_endline
                            (jlist (row_json ~version:(Version.to_string version)) rows)
                        else List.iter (print_xen_row ~verbose) rows;
                        `Ok ())
                | Ok `Kvm -> (
                    match KV.check p with
                    | Error e -> `Error (false, e)
                    | Ok () ->
                        let uc = KV.use_case p in
                        let rows =
                          List.map
                            (fun m ->
                              KC.run ~domains ~load uc m Ii_backends.Backend_kvm.rq1_config)
                            modes
                        in
                        if json then print_endline (jlist kvm_row_json rows)
                        else List.iter (print_kvm_row ~verbose) rows;
                        `Ok ()))))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ file_arg $ backend_arg $ mode_arg $ version_arg $ domains_arg $ load_arg
        $ json_arg $ verbose_arg))

(* --- scenario gate ------------------------------------------------------- *)

(* The corpus gate behind the CI step: every scenario must pass the
   load-time check, and its observed violations on the vulnerable
   configuration must cover the header's [expect] classes. The rows
   themselves are pinned by test/golden_rows.ml. *)
let gate_program (file, p) =
  match check_errors (file, p) with
  | _ :: _ as errs -> errs
  | [] ->
      let observed =
        match Scn_bytecode.backend p with
        | Scn_bytecode.Xen_only | Scn_bytecode.Any ->
            (Campaign.run (XV.use_case p) Campaign.Injection Substrate_xen.rq1_config)
              .Campaign.r_violations
        | Scn_bytecode.Kvm_only ->
            (KC.run (KV.use_case p) Campaign.Injection Ii_backends.Backend_kvm.rq1_config)
              .KC.r_violations
      in
      let classes = List.map Scn_ast.violation_class observed in
      List.filter_map
        (fun c ->
          if List.mem c classes then None
          else
            Some
              (Printf.sprintf
                 "%s: expected violation class %s not observed on the vulnerable config (saw: %s)"
                 file c
                 (match classes with [] -> "none" | cs -> String.concat ", " cs)))
        (Scn_bytecode.expected_violations p)

let gate_cmd =
  let doc =
    "Check each scenario and run its injection on the vulnerable configuration; fail unless \
     the observed violations cover its expect classes (the CI corpus gate)."
  in
  let run files =
    match load_all files with
    | Error e -> `Error (false, e)
    | Ok progs -> (
        match List.concat_map gate_program progs with
        | [] ->
            List.iter
              (fun (f, p) ->
                Printf.printf "%s: %s checks and shows its expected violations\n" f
                  (Scn_bytecode.name p))
              progs;
            `Ok ()
        | errs ->
            List.iter prerr_endline errs;
            `Error (false, Printf.sprintf "%d gate failure(s)" (List.length errs)))
  in
  Cmd.v (Cmd.info "gate" ~doc) Term.(ret (const run $ files_arg))

(* --- scenario crossdomain ------------------------------------------------ *)

(* The cross-domain gate behind the CI step: each scenario runs on an
   N-domain testbed under background load and must (a) produce its
   expected violation classes with at least one violation landing in a
   guest domain (the bystander casualty), (b) record and replay byte
   for byte with every domain live, and (c) attribute every violation
   to an originating action through the provenance graph — an intrusion
   found in a bystander domain that cannot be traced to the injector is
   a gate failure. Xen-capable scenarios only: the gate exercises the
   grant-table/event-channel/device-model surfaces. *)
let crossdomain_program ~domains ~load (file, p) =
  let errs = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "%s: %s" file m :: !errs) fmt
  in
  (match XV.check p with
  | Error e -> fail "%s" e
  | Ok () -> (
      let uc = XV.use_case p in
      let version = Substrate_xen.rq1_config in
      (* (a) blast radius: expected classes, landing in a guest domain *)
      let row = Campaign.run ~domains ~load uc Campaign.Injection version in
      let classes = List.map Scn_ast.violation_class row.Campaign.r_violations in
      List.iter
        (fun c ->
          if not (List.mem c classes) then
            fail "expected violation class %s not observed at %d domains under %s load" c
              domains (Load_mix.to_string load))
        (Scn_bytecode.expected_violations p);
      if not (List.exists (fun (d, vs) -> d <> "host" && vs <> []) row.Campaign.r_domains)
      then fail "no violation landed in a guest domain (no bystander casualty)";
      (* (b) replay determinism with every domain live *)
      List.iter
        (fun mode ->
          let r = Trace_driver.record ~domains ~load uc mode version in
          let rp = Trace_driver.replay r in
          if not rp.Trace_driver.rp_equal then
            fail "replay diverged in final state (%s mode)" (Campaign.mode_to_string mode);
          if not rp.Trace_driver.rp_vts_equal then
            fail "replay diverged in virtual timestamps (%s mode)" (Campaign.mode_to_string mode))
        [ Campaign.Real_exploit; Campaign.Injection ];
      (* (c) attribution completeness *)
      let report = Attribution.attribute ~domains ~load uc Campaign.Injection version in
      if not (Attribution.complete report) then
        fail "a violation in the blast radius has no attributed origin";
      match !errs with
      | [] ->
          Printf.printf
            "%s: %s OK at %d domains / %s load (%d violation(s), %d affected domain(s))\n"
            file (Scn_bytecode.name p)
            domains (Load_mix.to_string load)
            (List.length row.Campaign.r_violations)
            (List.length row.Campaign.r_domains)
      | _ -> ()));
  List.rev !errs

let crossdomain_cmd =
  let doc =
    "Cross-domain gate: run each scenario on a multi-domain testbed under background load; \
     fail unless the blast radius, replay determinism and per-violation attribution all \
     hold (the CI cross-domain step)."
  in
  let run files domains load_s =
    match Load_mix.of_string load_s with
    | None -> `Error (false, Printf.sprintf "unknown load mix %S (none|default|heavy)" load_s)
    | Some load -> (
        if domains < 2 then `Error (false, "need at least 2 guest domains")
        else
          match load_all files with
          | Error e -> `Error (false, e)
          | Ok progs -> (
              match List.concat_map (crossdomain_program ~domains ~load) progs with
              | [] -> `Ok ()
              | errs ->
                  List.iter prerr_endline errs;
                  `Error
                    (false, Printf.sprintf "%d cross-domain gate failure(s)" (List.length errs))))
  in
  Cmd.v
    (Cmd.info "crossdomain" ~doc)
    Term.(ret (const run $ files_arg $ domains_arg $ load_arg))

let cmd =
  let doc = "Work with compiled intrusion scenarios (.scn corpus)." in
  Cmd.group
    (Cmd.info "scenario" ~doc)
    [ list_cmd; check_cmd; compile_cmd; disasm_cmd; run_cmd; gate_cmd; crossdomain_cmd ]
