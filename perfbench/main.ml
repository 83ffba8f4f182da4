(* The trial benchmark's entry point.

     main.exe --workload random|corpus|observed --seed N --seconds S --trace 0|1

   Run from the root of a checkout (it reads corpus/*.scn and counts
   lines under lib/, bin/ and bench/). Prints a table, one informational
   JSON line (seed, machine, GC deltas, spreads) and, last, the result
   line. Exits 2 on bad arguments and 1 when a workload cannot start.

   BENCHMARK.json gates [random] and [corpus]. [observed] stays runnable
   for paired comparisons; its layers are measured by corpus's traced
   run, which gives each of the two halves of [--seconds]. *)

module S = Pb_stats

let usage () =
  prerr_endline
    "usage: main.exe --workload random|corpus|observed --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := Some (int_of n);
        go rest
    | "--seconds" :: n :: rest ->
        seconds := Some (int_of n);
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | ("random" | "corpus" | "observed"), Some seed, Some seconds, Some trace when seconds > 0 ->
      (!workload, seed, float_of_int seconds, trace)
  | _ -> usage ()

let env_or name default = match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

(* lib+bin+bench source lines, golden fixtures excluded: the design
   aim's size, reported beside the numbers but never gated. *)
let loc () =
  let rec lines_under dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then 0
    else
      Array.fold_left
        (fun acc f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then acc + lines_under p
          else if
            (Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
            && not (String.starts_with ~prefix:"golden" f)
          then
            acc
            + In_channel.with_open_bin p (fun ic ->
                  let n = ref 0 in
                  String.iter (fun c -> if c = '\n' then incr n) (In_channel.input_all ic);
                  !n)
          else acc)
        0 (Sys.readdir dir)
  in
  List.map (fun d -> (d, lines_under d)) [ "lib"; "bin"; "bench" ]

(* Set-up is repeated at least [setup_reps] times and for at least
   [setup_seconds], and reported as the median, so one slow repetition
   does not move [setup_s]. A set-up takes 10-20 ms, so 21 repetitions
   alone fit inside one fast or slow stretch of a shared host (ten-seed
   spread 0.30); a few seconds of them see both. The repetitions run after
   the measured loop, on the heap the workload left behind: their garbage
   must not count in the workload's [peak_heap_mb], and a warm heap keeps
   the boots' cost from depending on how fast the kernel hands out fresh
   pages. *)
let setup_reps = 21
let setup_seconds = 3.

let time_setup report setup_once =
  let reps = S.samples () in
  let start = S.now_ns () in
  while S.count reps < setup_reps || S.elapsed_ns start < setup_seconds *. 1e9 do
    let t0 = S.now_ns () in
    setup_once ();
    S.add reps (S.elapsed_ns t0 /. 1e9)
  done;
  Pb_report.set report "setup_s" (Pb_report.of_samples reps)

let () =
  let workload, seed, seconds, traced = parse_args () in
  let nproc =
    match int_of_string_opt (env_or "PERFBENCH_NPROC" "") with
    | Some n when n > 0 -> n
    | _ -> Stdlib.Domain.recommended_domain_count ()
  in
  let workers = min 2 nproc in
  let report = Pb_report.create ~workload ~traced in
  let info k v = Pb_report.info report k v in
  let str = Pb_report.json_string in
  info "workload" (str workload);
  info "seed" (string_of_int seed);
  info "seconds" (Pb_report.json_num seconds);
  info "trace" (string_of_bool traced);
  info "nproc" (string_of_int nproc);
  info "recommended_domain_count" (string_of_int (Stdlib.Domain.recommended_domain_count ()));
  info "workers" (string_of_int (if workload = "random" && traced then workers else 1));
  info "ocamlrunparam" (str (env_or "OCAMLRUNPARAM" ""));
  info "ocaml_version" (str Sys.ocaml_version);
  info "commit" (str (env_or "PERFBENCH_COMMIT" "unknown"));
  info "loc"
    (Printf.sprintf "{%s}"
       (String.concat "," (List.map (fun (d, n) -> Printf.sprintf "%s:%d" (str d) n) (loc ()))));
  let setup_once, run =
    match workload with
    | "random" ->
        ( Pb_random.setup_once,
          fun () ->
            Pb_random.warm_pool ();
            if traced then Pb_random.traced ~seed ~seconds ~workers ~report
            else Pb_random.untraced ~seed ~seconds ~report )
    | "corpus" ->
        let corpus = Pb_corpus.load_or_exit () in
        ( Pb_corpus.setup_once,
          fun () ->
            if traced then begin
              let seconds = seconds /. 2. in
              let a, f, g = Pb_corpus.traced corpus ~seed ~seconds ~report in
              let a', f', _ = Pb_observed.traced ~gc:false corpus ~seed ~seconds ~report in
              (a + a', f + f', g)
            end
            else Pb_corpus.untraced corpus ~seed ~seconds ~report )
    | _ ->
        let corpus = Pb_corpus.load_or_exit () in
        ( Pb_observed.setup_once,
          fun () ->
            if traced then Pb_observed.traced corpus ~seed ~seconds ~report
            else Pb_observed.untraced corpus ~seed ~seconds ~report )
  in
  let attempted, failed, gc = run () in
  Pb_report.set report "peak_heap_mb" (Pb_report.exact (S.peak_heap_mb ()));
  if not traced then time_setup report setup_once;
  info "gc"
    (Printf.sprintf
       "{\"minor_collections\":%d,\"major_collections\":%d,\"promoted_words\":%s,\"minor_words\":%s}"
       gc.S.minor_collections gc.S.major_collections (Pb_report.json_num gc.S.promoted_words)
       (Pb_report.json_num gc.S.minor_words));
  info "failed_frac"
    (Pb_report.json_num (if attempted = 0 then 1. else float_of_int failed /. float_of_int attempted));
  Pb_report.print report ~attempted ~failed
