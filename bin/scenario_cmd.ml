(* The scenario subcommand: the .scn corpus as first-class input —
   list, check, disassemble, run and gate use cases that are
   loadable data instead of OCaml modules. *)

open Cmdliner
open Cli

let load_all files =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
        match Scn_loader.load_file f with
        | Ok p -> go ((f, p) :: acc) rest
        | Error e -> Error e)
  in
  go [] files

let admits (module K : All.BACKEND) p = Scn_check.compatible K.Ops.ops (Scn_bytecode.backend p)

(* Load-time gate: a program is checked against the op table of
   every backend its header admits. *)
let check_errors (file, p) =
  List.filter_map
    (fun (module K : All.BACKEND) ->
      let module S = Scn_vm.Make (K.Ops) in
      if not (S.compatible p) then None
      else
        match S.check p with
        | Ok () -> None
        | Error msg -> Some (Printf.sprintf "%s [%s]: %s" file K.Ops.B.name msg))
    All.backends

(* The backend a run uses: the header's constraint wins; a portable
   (any) scenario follows --backend, else the first registered backend. *)
let backend_for p = function
  | Some b when admits b p -> Ok b
  | Some b ->
      Error
        (Printf.sprintf "scenario %s is %s-only; it cannot run on backend %S"
           p.Scn_bytecode.name
           (Scn_bytecode.backend_tag_to_string (Scn_bytecode.backend p))
           (All.backend_name b))
  | None -> (
      match List.find_opt (fun b -> admits b p) All.backends with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "no registered backend admits scenario %s" p.Scn_bytecode.name))

let jstr s = "\"" ^ Metrics.json_escape s ^ "\""
let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

(* --- scenario list ------------------------------------------------------- *)

let corpus_files dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
      let files =
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".scn")
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
                       (jstr p.Scn_bytecode.name)
                       (jstr p.Scn_bytecode.xsa)
                       (jstr (Scn_bytecode.backend_tag_to_string (Scn_bytecode.backend p)))
                       (Array.length p.Scn_bytecode.exploit
                       + Array.length p.Scn_bytecode.inject)
                       (jlist jstr (Scn_bytecode.expected_violations p)))
                   progs)
            else begin
              Printf.printf "%-14s %-8s %-7s %6s  %-22s %s\n" "NAME" "XSA" "BACKEND"
                "INSTRS" "EXPECT" "FILE";
              List.iter
                (fun (f, p) ->
                  Printf.printf "%-14s %-8s %-7s %6d  %-22s %s\n" p.Scn_bytecode.name
                    p.Scn_bytecode.xsa
                    (Scn_bytecode.backend_tag_to_string (Scn_bytecode.backend p))
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
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files (.scn).")

let check_cmd =
  let doc = "Parse scenarios and gate them against the backend op tables." in
  let run files =
    match load_all files with
    | Error e -> `Error (false, e)
    | Ok progs -> (
        match List.concat_map check_errors progs with
        | [] ->
            List.iter
              (fun (f, p) ->
                Printf.printf "%s: %s OK (%d instructions)\n" f p.Scn_bytecode.name
                  (Array.length p.Scn_bytecode.exploit
                  + Array.length p.Scn_bytecode.inject))
              progs;
            `Ok ()
        | errs ->
            List.iter prerr_endline errs;
            `Error (false, Printf.sprintf "%d scenario(s) failed the load-time check" (List.length errs)))
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(ret (const run $ files_arg))

(* --- scenario disasm ----------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario file (.scn).")

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

let run_cmd =
  let doc = "Execute a scenario in the scenario VM against a backend." in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit result rows as JSON.") in
  let run file backend modes config domains load json verbose =
    match Scn_loader.load_file file with
    | Error e -> `Error (false, e)
    | Ok p -> (
        match backend_for p backend with
        | Error e -> `Error (false, e)
        | Ok (module K) -> (
            let module D = Drivers (K) in
            match (D.S.check p, D.config config) with
            | Error e, _ | _, Error e -> `Error (false, e)
            | Ok (), Ok config ->
                let uc = D.S.use_case p in
                let rows = List.map (fun m -> D.C.run ~domains ~load uc m config) modes in
                let row_json r =
                  Printf.sprintf
                    "{\"use_case\":%s,\"version\":%s,\"mode\":%s,\"rc\":%s,\"state\":%b,\"violations\":%s,\"transcript\":%s}"
                    (jstr r.D.C.r_use_case)
                    (jstr (D.B.config_to_string r.D.C.r_version))
                    (jstr (Campaign.mode_to_string r.D.C.r_mode))
                    (match r.D.C.r_rc with Some rc -> string_of_int rc | None -> "null")
                    r.D.C.r_state
                    (jlist (fun v -> jstr (Monitor.violation_to_string v)) r.D.C.r_violations)
                    (jlist jstr r.D.C.r_transcript)
                in
                if json then print_endline (jlist row_json rows)
                else
                  List.iter
                    (fun r ->
                      D.print_row ~verbose ~evidence:false r;
                      print_newline ())
                    rows;
                `Ok ()))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ file_arg $ backend_arg $ modes_arg $ config_arg $ domains_arg $ load_arg
        $ json_arg $ verbose_arg))

(* --- scenario gate ------------------------------------------------------- *)

(* The corpus gate behind the CI step: every scenario must pass the
   load-time check, and its observed violations on the vulnerable
   configuration must cover the header's [expect] classes. The rows
   themselves are pinned by test/golden_rows.ml. *)
let gate_program (file, p) =
  match (check_errors (file, p), backend_for p None) with
  | (_ :: _ as errs), _ -> errs
  | [], Error e -> [ file ^ ": " ^ e ]
  | [], Ok (module K) ->
      let module D = Drivers (K) in
      let row = D.C.run (D.S.use_case p) Campaign.Injection D.B.rq1_config in
      let classes = List.map Scn_ast.violation_class row.D.C.r_violations in
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
                  p.Scn_bytecode.name)
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
   a gate failure. It runs on the default (Xen) backend: the gate
   exercises the grant-table/event-channel/device-model surfaces. *)
let crossdomain_program (module K : All.BACKEND) ~domains ~load (file, p) =
  let module D = Drivers (K) in
  let errs = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "%s: %s" file m :: !errs) fmt
  in
  (match D.S.check p with
  | Error e -> fail "%s" e
  | Ok () -> (
      let uc = D.S.use_case p in
      let config = D.B.rq1_config in
      (* (a) blast radius: expected classes, landing in a guest domain *)
      let row = D.C.run ~domains ~load uc Campaign.Injection config in
      let classes = List.map Scn_ast.violation_class row.D.C.r_violations in
      List.iter
        (fun c ->
          if not (List.mem c classes) then
            fail "expected violation class %s not observed at %d domains under %s load" c
              domains (Load_mix.to_string load))
        (Scn_bytecode.expected_violations p);
      if not (List.exists (fun (d, vs) -> d <> "host" && vs <> []) row.D.C.r_domains)
      then fail "no violation landed in a guest domain (no bystander casualty)";
      (* (b) replay determinism with every domain live *)
      List.iter
        (fun mode ->
          let r = D.T.record ~domains ~load uc mode config in
          let rp = D.T.replay r in
          if not rp.D.T.rp_equal then
            fail "replay diverged in final state (%s mode)" (Campaign.mode_to_string mode);
          if not rp.D.T.rp_vts_equal then
            fail "replay diverged in virtual timestamps (%s mode)" (Campaign.mode_to_string mode))
        [ Campaign.Real_exploit; Campaign.Injection ];
      (* (c) attribution completeness *)
      let report = D.A.attribute ~domains ~load uc Campaign.Injection config in
      if not (D.A.complete report) then
        fail "a violation in the blast radius has no attributed origin";
      match !errs with
      | [] ->
          Printf.printf
            "%s: %s OK at %d domains / %s load (%d violation(s), %d affected domain(s))\n"
            file p.Scn_bytecode.name
            domains (Load_mix.to_string load)
            (List.length row.D.C.r_violations)
            (List.length row.D.C.r_domains)
      | _ -> ()));
  List.rev !errs

let crossdomain_cmd =
  let doc =
    "Cross-domain gate: run each scenario on a multi-domain testbed under background load; \
     fail unless the blast radius, replay determinism and per-violation attribution all \
     hold (the CI cross-domain step)."
  in
  let run files domains load =
    match load_all files with
    | Error e -> `Error (false, e)
    | Ok progs -> (
        match List.concat_map (crossdomain_program All.xen ~domains ~load) progs with
        | [] -> `Ok ()
        | errs ->
            List.iter prerr_endline errs;
            `Error (false, Printf.sprintf "%d cross-domain gate failure(s)" (List.length errs)))
  in
  Cmd.v
    (Cmd.info "crossdomain" ~doc)
    Term.(ret (const run $ files_arg $ domains_arg $ load_arg))

let cmd =
  let doc = "Work with intrusion scenarios (.scn corpus)." in
  Cmd.group
    (Cmd.info "scenario" ~doc)
    [ list_cmd; check_cmd; disasm_cmd; run_cmd; gate_cmd; crossdomain_cmd ]
