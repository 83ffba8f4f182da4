(* Generator for the golden fixtures.

   [goldgen] (no argument) prints the pre-refactor Xen fixture
   (test/golden_xen.ml: trace bytes and row fingerprints on Xen 4.6).
   [goldgen rows] prints test/golden_rows.ml: the row fingerprint of
   every use case on every configuration of its backend, in both
   modes. [goldgen cells], run from the repository root, prints
   test/golden_cells.ml: the virtual time and telemetry of every
   corpus/*.scn cell at the perfbench [corpus] shape (4 domains under
   the default load, long-lived pooled testbeds). [goldgen random]
   prints test/golden_random.ml: the outcome tally and a digest of
   every trial of the randomized campaign, per seed, target set and
   version, each version run on its own freshly booted testbed. All
   were captured once; do not regenerate them from code whose
   behaviour they are meant to pin. *)

(* The row fingerprint itself is test/fingerprint.ml's, copied into
   this directory by dune, so the generator and the tests that compare
   against its fixtures print rows with one function. *)
module Cells (B : Substrate.S) = struct
  include Fingerprint.Make (B)

  (* every (use case, config, mode) cell, in matrix order *)
  let cells ucs =
    List.concat_map
      (fun uc ->
        List.concat_map
          (fun config ->
            List.map
              (fun mode ->
                let r = C.run uc mode config in
                (uc.C.uc_name, B.config_to_string config, Campaign.mode_to_string mode, row r))
              [ Campaign.Real_exploit; Campaign.Injection ])
          B.configs)
      ucs

  (* every cell at the corpus benchmark's shape, in matrix order, each
     configuration on one long-lived pooled testbed *)
  let corpus_cells ucs =
    let tbs =
      List.map (fun c -> (c, B.create_pooled ~domains:4 ~load:Load_mix.default c)) B.configs
    in
    List.concat_map
      (fun uc ->
        List.concat_map
          (fun (config, tb) ->
            List.map
              (fun mode ->
                let r = C.run ~tb uc mode config in
                ( uc.C.uc_name,
                  B.config_to_string config,
                  Campaign.mode_to_string mode,
                  r.C.r_vtime_ns,
                  telemetry r.C.r_telemetry ))
              [ Campaign.Real_exploit; Campaign.Injection ])
          tbs)
      ucs
end

module Xen_fp = Cells (Substrate_xen)
module XV = Ii_scenario.Scn_vm.Make (Ii_exploits.Scenario_xen)
module KV = Ii_scenario.Scn_vm.Make (Ii_backends.Scenario_kvm)
module Kvm_fp = Cells (Ii_backends.Backend_kvm)

let fingerprint = Xen_fp.row

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let emit_string name s =
  (* chunk long hex strings for readability: one OCaml string literal
     with backslash-newline continuations *)
  Printf.printf "let %s =\n  unhex\n    \"" name;
  let h = hex s in
  let n = String.length h in
  let i = ref 0 in
  while !i < n do
    let len = min 76 (n - !i) in
    print_string (String.sub h !i len);
    i := !i + len;
    if !i < n then print_string "\\\n     "
  done;
  print_string "\"\n\n"

let emit_xen () =
  print_endline "(* Pre-refactor golden fixtures: trace bytes and campaign row";
  print_endline "   fingerprints captured from the Xen-only stack, before the";
  print_endline "   substrate refactor. Generated once; do not regenerate from";
  print_endline "   post-refactor code. *)";
  print_newline ();
  print_endline "let unhex h =";
  print_endline "  let n = String.length h / 2 in";
  print_endline "  String.init n (fun i -> Char.chr (int_of_string (\"0x\" ^ String.sub h (2 * i) 2)))";
  print_newline ();
  let slug uc mode =
    let m = match mode with Campaign.Real_exploit -> "exploit" | Campaign.Injection -> "injection" in
    String.map (fun c -> if c = '-' then '_' else Char.lowercase_ascii c) uc.Campaign.uc_name ^ "_" ^ m
  in
  let cases =
    List.concat_map
      (fun uc -> [ (uc, Campaign.Real_exploit); (uc, Campaign.Injection) ])
      Ii_exploits.All_exploits.use_cases
  in
  List.iter
    (fun (uc, mode) ->
      let r = Trace_driver.record uc mode Version.V4_6 in
      emit_string ("trace_" ^ slug uc mode) r.Trace_driver.rec_bytes;
      emit_string ("row_" ^ slug uc mode) (fingerprint r.Trace_driver.rec_row))
    cases;
  Printf.printf "let cases = [\n";
  List.iter
    (fun (uc, mode) ->
      let s = slug uc mode in
      Printf.printf "  (%S, %S, trace_%s, row_%s);\n" uc.Campaign.uc_name
        (match mode with Campaign.Real_exploit -> "exploit" | Campaign.Injection -> "injection")
        s s)
    cases;
  Printf.printf "]\n"

let emit_rows () =
  print_endline "(* Golden row fingerprints of every use case on every configuration";
  print_endline "   of its backend, in both modes: (use case, config, mode,";
  print_endline "   fingerprint). Captured from the hand-written use-case modules";
  print_endline "   before the .scn corpus replaced them; do not regenerate. *)";
  let emit name cells =
    Printf.printf "\nlet %s =\n  [\n" name;
    List.iter (fun (uc, config, mode, fp) -> Printf.printf "    (%S, %S, %S,\n     %S);\n" uc config mode fp) cells;
    print_endline "  ]"
  in
  emit "xen" (Xen_fp.cells Ii_exploits.All_exploits.use_cases);
  emit "kvm" (Kvm_fp.cells Ii_exploits.All_exploits.kvm_use_cases)

let emit_cells () =
  print_endline "(* Golden virtual time and telemetry of every corpus cell at the";
  print_endline "   perfbench [corpus] shape: 4 domains under the default load, each";
  print_endline "   configuration on one long-lived pooled testbed, cells in matrix";
  print_endline "   order. (use case, config, mode, r_vtime_ns, telemetry). A";
  print_endline "   speed-only change must leave every entry identical; do not";
  print_endline "   regenerate. *)";
  let emit name cells =
    Printf.printf "\nlet %s =\n  [\n" name;
    List.iter
      (fun (uc, config, mode, vtime, tm) ->
        Printf.printf "    (%S, %S, %S, %LdL,\n     %S);\n" uc config mode vtime tm)
      cells;
    print_endline "  ]"
  in
  (* every corpus/*.scn program, split by backend as the benchmark does *)
  let programs =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (fun f ->
           match Ii_scenario.Scn_loader.load_file (Filename.concat "corpus" f) with
           | Ok p -> p
           | Error e -> failwith e)
  in
  let kvm_only p = Ii_scenario.Scn_bytecode.backend p = Ii_scenario.Scn_bytecode.Kvm_only in
  emit "xen"
    (Xen_fp.corpus_cells
       (List.filter_map (fun p -> if kvm_only p then None else Some (XV.use_case p)) programs));
  emit "kvm"
    (Kvm_fp.corpus_cells
       (List.filter_map (fun p -> if kvm_only p then Some (KV.use_case p) else None) programs))

(* One line per trial: every field of [Random_campaign.trial]. The
   test suite digests trials with the same function. *)
let trial_line (t : Random_campaign.trial) =
  Printf.sprintf "%d|%s|%Lx|%Lx|%s|%s" t.Random_campaign.index
    (Random_campaign.target_to_string t.Random_campaign.target)
    t.Random_campaign.t_addr t.Random_campaign.t_value
    (Random_campaign.outcome_to_string t.Random_campaign.outcome)
    (String.concat ";" (List.map Monitor.violation_to_string t.Random_campaign.t_violations))

let emit_random () =
  print_endline "(* Golden randomized-campaign outcomes: (seed, target set, version,";
  print_endline "   tally in all_outcomes order, MD5 of every trial's fields), 200";
  print_endline "   trials per version, each version on its own freshly booted";
  print_endline "   testbed (the sequential reference the batching scheduler must";
  print_endline "   reproduce). Do not regenerate. *)";
  print_endline "\nlet trials = 200\n\nlet cases =\n  [";
  List.iter
    (fun seed ->
      List.iter
        (fun (set, targets) ->
          List.iter
            (fun version ->
              (* each version's trials in order on one freshly booted testbed *)
              let w = Random_campaign.make_worker version in
              let trials = List.init 200 (Random_campaign.run_one w ~seed ~targets) in
              Printf.printf "    (%LdL, %S, %S,\n     %S,\n     %S);\n" seed set
                (Version.to_string version)
                (String.concat ","
                   (List.map (fun (_, n) -> string_of_int n) (Random_campaign.tally_of trials)))
                (Digest.to_hex (Digest.string (String.concat "\n" (List.map trial_line trials)))))
            Version.all)
        [ ("intrusion", Random_campaign.intrusion_targets); ("all", Random_campaign.all_targets) ])
    [ 1L; 7L; 42L ];
  print_endline "  ]"

let () =
  match Sys.argv with
  | [| _ |] -> emit_xen ()
  | [| _; "rows" |] -> emit_rows ()
  | [| _; "cells" |] -> emit_cells ()
  | [| _; "random" |] -> emit_random ()
  | _ ->
      prerr_endline "usage: goldgen [rows|cells|random]";
      exit 2
