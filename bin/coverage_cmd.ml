(* The coverage subcommand: deterministic coverage maps over the .scn
   corpus — per-scenario bits and novelty, the cumulative union,
   differential coverage between two saved runs, and the CI gate
   (determinism check, non-empty first-run novelty, pinned bit floor). *)

open Cmdliner
open Cli

let jstr = Scenario_cmd.jstr
let jlist = Scenario_cmd.jlist

(* One result row, projected out of whichever backend's campaign ran it. *)
type srow = {
  sr_name : string;
  sr_mode : string;
  sr_bits : int;
  sr_novelty : int;
  sr_hash : int64;
}

let srow_json r =
  Printf.sprintf "{\"scenario\":%s,\"mode\":%s,\"bits\":%d,\"novelty\":%d,\"hash\":\"%016Lx\"}"
    (jstr r.sr_name) (jstr r.sr_mode) r.sr_bits r.sr_novelty r.sr_hash

(* Per-scenario novelty total: the rows of one scenario are contiguous
   (run_matrix deals cells use-case-major), so summing novelty by name
   is the "what did this scenario add on first sight" signal. *)
let novelty_by_scenario srows =
  List.fold_left
    (fun acc r ->
      match List.assoc_opt r.sr_name acc with
      | Some n -> (r.sr_name, n + r.sr_novelty) :: List.remove_assoc r.sr_name acc
      | None -> (r.sr_name, r.sr_novelty) :: acc)
    [] srows
  |> List.rev

(* --- coverage diff ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_direction label d =
  Printf.printf "%s: %d bit(s)\n" label (Coverage.popcount d);
  List.iter
    (fun (region, bits) -> if bits > 0 then Printf.printf "    %-10s %d\n" region bits)
    (Coverage.region_bits d)

let run_diff file_a file_b json =
  let load path =
    match Coverage.of_json_map (read_file path) with
    | Ok m -> Ok m
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  match (load file_a, load file_b) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok a, Ok b ->
      let only_a = Coverage.diff a b and only_b = Coverage.diff b a in
      if json then
        Printf.printf
          "{\"a\":%s,\"b\":%s,\"only_a\":%s,\"only_b\":%s,\"equal\":%b}\n" (jstr file_a)
          (jstr file_b) (Coverage.to_json only_a) (Coverage.to_json only_b)
          (Coverage.equal a b)
      else begin
        Printf.printf "A = %s (%d bits)\nB = %s (%d bits)\n" file_a (Coverage.popcount a)
          file_b (Coverage.popcount b);
        print_direction "only in A" only_a;
        print_direction "only in B" only_b;
        if Coverage.equal a b then print_endline "maps are identical"
      end;
      `Ok ()

(* --- the corpus sweep + gate --------------------------------------------- *)

let run_corpus dir (module K : All.BACKEND) domains load json min_bits =
  let module D = Drivers (K) in
  (* the corpus subset the backend can execute, already checked
     against its action table *)
  let compatible progs =
    List.filter_map
      (fun (file, p) ->
        if not (D.S.compatible p) then None
        else match D.S.check p with Ok () -> Some p | Error e -> failwith (file ^ ": " ^ e))
      progs
  in
  let run ~workers progs =
    let acc = ref Coverage.empty in
    let rows =
      D.C.run_matrix ~workers ~domains ~load ~coverage:acc
        (List.map D.S.use_case progs) ~versions:[ D.B.rq1_config ]
        ~modes:[ Campaign.Real_exploit; Campaign.Injection ]
    in
    let srow r =
      let m = Option.value r.D.C.r_coverage ~default:Coverage.empty in
      {
        sr_name = r.D.C.r_use_case;
        sr_mode = Campaign.mode_to_string r.D.C.r_mode;
        sr_bits = Coverage.popcount m;
        sr_novelty = r.D.C.r_cov_novelty;
        sr_hash = Coverage.hash m;
      }
    in
    (List.map srow rows, !acc)
  in
  match Scenario_cmd.corpus_files dir with
  | Error e -> `Error (false, e)
  | Ok files -> (
      match Scenario_cmd.load_all files with
      | Error e -> `Error (false, e)
      | Ok progs -> (
          match compatible progs with
          | exception Failure e -> `Error (false, e)
          | [] -> `Error (false, Printf.sprintf "no %s-compatible scenarios in %s" D.B.name dir)
          | progs ->
              (* the run whose rows we report: sequential *)
              let srows, cum = run ~workers:1 progs in
              (* the determinism gate re-runs the same matrix sharded
                 over 3 workers, each on its own forks of the pooled
                 templates; both cumulative maps must be byte-identical *)
              let _, cum_sharded = run ~workers:3 progs in
              let deterministic = Coverage.equal cum cum_sharded in
              let no_novelty =
                List.filter_map
                  (fun (name, n) -> if n = 0 then Some name else None)
                  (novelty_by_scenario srows)
              in
              let bits = Coverage.popcount cum in
              if json then
                Printf.printf
                  "{\"backend\":%s,\"scenarios\":%s,\"cumulative\":%s,\"deterministic\":%b,\
                   \"scenarios_without_novelty\":%s}\n"
                  (jstr D.B.name) (jlist srow_json srows) (Coverage.to_json cum)
                  deterministic
                  (jlist jstr no_novelty)
              else begin
                Printf.printf "%-18s %-10s %6s %8s  %s\n" "SCENARIO" "MODE" "BITS"
                  "NOVELTY" "HASH";
                List.iter
                  (fun r ->
                    Printf.printf "%-18s %-10s %6d %8d  %016Lx\n" r.sr_name r.sr_mode
                      r.sr_bits r.sr_novelty r.sr_hash)
                  srows;
                Printf.printf "\ncumulative: %d / %d bits (hash %016Lx)\n" bits
                  Coverage.size_bits (Coverage.hash cum);
                List.iter
                  (fun (region, n) -> Printf.printf "  %-10s %d\n" region n)
                  (Coverage.region_bits cum);
                Printf.printf "deterministic (workers 1 = workers 3): %b\n"
                  deterministic
              end;
              if not deterministic then
                `Error (false, "coverage maps diverged across scheduling strategies")
              else if no_novelty <> [] then
                `Error
                  ( false,
                    Printf.sprintf "scenario(s) with no first-run novelty: %s"
                      (String.concat ", " no_novelty) )
              else if bits < min_bits then
                `Error
                  ( false,
                    Printf.sprintf "cumulative coverage %d bit(s) below the floor (%d)" bits
                      min_bits )
              else `Ok ()))

let cmd =
  let doc =
    "Deterministic corpus coverage: per-scenario maps and novelty, the cumulative union, \
     and the CI determinism/floor gate."
  in
  let dir_arg =
    Arg.(value & pos 0 dir "corpus" & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let min_bits_arg =
    Arg.(
      value & opt int 0
      & info [ "min-bits" ] ~docv:"N"
          ~doc:"Fail unless the cumulative map covers at least $(docv) bits (the CI floor).")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some (pair ~sep:',' file file)) None
      & info [ "diff" ] ~docv:"A.json,B.json"
          ~doc:
            "Differential coverage: compare the cumulative maps of two saved --json reports \
             and print the bits unique to each side (no campaign runs).")
  in
  let run dir backend domains load json min_bits diff =
    match diff with
    | Some (a, b) -> run_diff a b json
    | None -> run_corpus dir backend domains load json min_bits
  in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(
      ret
        (const run $ dir_arg $ backend $ domains_arg $ load_arg $ json_arg $ min_bits_arg
        $ diff_arg))
