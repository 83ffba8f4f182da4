(* Workload [corpus]: Table III as data. Every corpus/*.scn program is
   loaded, checked and compiled once; a closed loop on one worker then
   runs every cell — the Xen programs x Version.all x {exploit,
   injection} and the KVM programs x Backend_kvm.configs x both modes —
   as one timed Campaign.run each, on long-lived pooled testbeds with 4
   domains under the default background load. The seed shuffles the
   cell order of every round. *)

module S = Pb_stats
module XV = Scn_vm.Make (Ii_exploits.Scenario_xen)
module KV = Scn_vm.Make (Ii_backends.Scenario_kvm)
module Kvm = Ii_backends.Backend_kvm

let domains = 4
let load_mix = Load_mix.default
let modes = [ Campaign.Real_exploit; Campaign.Injection ]

type t = {
  xen : (Scn_bytecode.program * XV.C.use_case) list;
  kvm : (Scn_bytecode.program * KV.C.use_case) list;
}

let corpus_dir = "corpus"

let files () =
  if not (Sys.file_exists corpus_dir && Sys.is_directory corpus_dir) then
    Error (Printf.sprintf "%s/: no such directory (run from the repository root)" corpus_dir)
  else
    Ok
      (List.sort compare
         (List.filter_map
            (fun f -> if Filename.check_suffix f ".scn" then Some (Filename.concat corpus_dir f) else None)
            (Array.to_list (Sys.readdir corpus_dir))))

(* Load (parse + compile) and check every program; [on_load] and
   [on_check] receive each step's host ns. *)
let load ?(on_load = ignore) ?(on_check = ignore) () =
  let ( let* ) = Result.bind in
  let* files = files () in
  let rec go xen kvm = function
    | [] -> Ok { xen = List.rev xen; kvm = List.rev kvm }
    | file :: rest -> (
        let t0 = S.now_ns () in
        let* program = Scn_loader.load_file file in
        on_load (S.elapsed_ns t0);
        let t1 = S.now_ns () in
        match Scn_bytecode.backend program with
        | Scn_bytecode.Kvm_only ->
            let* () = Result.map_error (fun e -> file ^ ": " ^ e) (KV.check program) in
            on_check (S.elapsed_ns t1);
            go xen ((program, KV.use_case program) :: kvm) rest
        | Scn_bytecode.Xen_only | Scn_bytecode.Any ->
            let* () = Result.map_error (fun e -> file ^ ": " ^ e) (XV.check program) in
            on_check (S.elapsed_ns t1);
            go ((program, XV.use_case program) :: xen) kvm rest)
  in
  let* t = go [] [] files in
  if t.xen = [] && t.kvm = [] then Error "corpus/: no .scn programs" else Ok t

let load_or_exit () =
  match load () with
  | Ok t -> t
  | Error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 1

(* One set-up: load, check and compile the corpus, and boot one template
   per configuration at the workload's shape (the boots the warm pool
   performs before the first fork). *)
let setup_once () =
  ignore (load_or_exit ());
  List.iter
    (fun v ->
      let tmpl = Testbed.create ~domains v in
      Phys_mem.freeze tmpl.Testbed.hv.Hv.mem)
    Version.all;
  List.iter (fun c -> ignore (Kvm.create ~domains c)) Kvm.configs

(* --- cells --------------------------------------------------------------- *)

type cell =
  | Xen_cell of Scn_bytecode.program * XV.C.use_case * Version.t * Campaign.mode
  | Kvm_cell of Scn_bytecode.program * KV.C.use_case * Kvm.config * Campaign.mode

type row = Xen_row of XV.C.result_row | Kvm_row of KV.C.result_row

let cells t =
  Array.of_list
    (List.concat_map
       (fun (p, uc) ->
         List.concat_map (fun v -> List.map (fun m -> Xen_cell (p, uc, v, m)) modes) Version.all)
       t.xen
    @ List.concat_map
        (fun (p, uc) ->
          List.concat_map (fun c -> List.map (fun m -> Kvm_cell (p, uc, c, m)) modes) Kvm.configs)
        t.kvm)

(* Long-lived pooled testbeds, one per configuration. *)
type testbeds = { xen_tb : (Version.t * Testbed.t) list; kvm_tb : (Kvm.config * Kvm.t) list }

let testbeds () =
  {
    xen_tb = List.map (fun v -> (v, Substrate_xen.create_pooled ~domains ~load:load_mix v)) Version.all;
    kvm_tb = List.map (fun c -> (c, Kvm.create_pooled ~domains ~load:load_mix c)) Kvm.configs;
  }

let run_cell tbs = function
  | Xen_cell (_, uc, v, m) -> Xen_row (XV.C.run ~tb:(List.assoc v tbs.xen_tb) uc m v)
  | Kvm_cell (_, uc, c, m) -> Kvm_row (KV.C.run ~tb:(List.assoc c tbs.kvm_tb) uc m c)

(* The rows the checks and the exact counts read. *)
let telemetry = function
  | Xen_row r -> (r.XV.C.r_telemetry, r.XV.C.r_vtime_ns)
  | Kvm_row r -> (r.KV.C.r_telemetry, r.KV.C.r_vtime_ns)

(* Each program's expected violation classes must show up in its
   injection row on the vulnerable (RQ1) configuration. *)
let expect_holds cell row =
  let check p violations =
    let seen = List.map Scn_ast.violation_class violations in
    List.for_all (fun c -> List.mem c seen) (Scn_bytecode.expected_violations p)
  in
  match (cell, row) with
  | Xen_cell (p, _, v, Campaign.Injection), Xen_row r when v = Substrate_xen.rq1_config ->
      check p r.XV.C.r_violations
  | Kvm_cell (p, _, c, Campaign.Injection), Kvm_row r when c = Kvm.rq1_config ->
      check p r.KV.C.r_violations
  | _ -> true

(* The closed loop over every cell. Each cell's first row is its
   reference: it must show the program's expected classes, and every
   later run of the cell must equal it. [on_cell i row dt] sees every
   completed cell. *)
let rounds ?(on_cell = fun _ _ _ -> ()) tbs cells ~seed ~until =
  let reference = Array.make (Array.length cells) None in
  let loop =
    S.closed_loop ~n:(Array.length cells) ~seed ~until
      ~call:(fun i -> run_cell tbs cells.(i))
      ~check:(fun i row dt ->
        let ok =
          match reference.(i) with
          | None ->
              reference.(i) <- Some row;
              expect_holds cells.(i) row
          | Some r -> r = row
        in
        on_cell i row dt;
        ok)
  in
  (reference, loop)

let untraced t ~seed ~seconds ~report =
  let tbs = testbeds () and cells = cells t in
  let gc0 = Gc.quick_stat () in
  let _, loop = rounds tbs cells ~seed ~until:(S.Seconds seconds) in
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  Pb_report.set_latency report ~latency:loop.S.latency ~rates:loop.S.rates ();
  Pb_report.info report "cells_per_round" (string_of_int (Array.length cells));
  (loop.S.attempted, loop.S.failed, g)

(* --- traced: Campaign.run composed from Substrate.S calls ------------------ *)

module Compose (B : Substrate.S) = struct
  module C = Campaign.Make (B)

  (* Campaign.run's sequence of substrate calls, one span per call when
     [sp] is given, observer and coverage detached as in the untraced
     run. Returns the verdict the row must agree with. *)
  let run ?sp ~tb (uc : C.use_case) mode =
    let span name f = S.maybe_span sp (name ^ "_ns." ^ B.name) f in
    span "substrate.reset" (fun () -> B.reset tb);
    if mode = Campaign.Injection then B.install_injector tb;
    let before = span "substrate.snapshot" (fun () -> B.snapshot tb) in
    let attempt =
      span "scn_vm.exec" (fun () ->
          match mode with
          | Campaign.Real_exploit -> uc.C.run_exploit tb
          | Campaign.Injection -> uc.C.run_injection tb)
    in
    for _ = 1 to Campaign.scheduler_rounds do
      span "substrate.tick_all" (fun () -> B.tick_all tb)
    done;
    let audits = span "substrate.audit" (fun () -> List.map (B.audit tb) attempt.C.states) in
    let state =
      attempt.C.states <> [] && List.for_all (fun a -> a.Erroneous_state.holds) audits
    in
    let after = span "substrate.snapshot" (fun () -> B.snapshot tb) in
    (state, B.violations ~before ~after)
end

module CX = Compose (Substrate_xen)
module CK = Compose (Kvm)

let compose ?sp tbs cell row =
  match (cell, row) with
  | Xen_cell (_, uc, v, m), Xen_row r ->
      CX.run ?sp ~tb:(List.assoc v tbs.xen_tb) uc m = (r.XV.C.r_state, r.XV.C.r_violations)
  | Kvm_cell (_, uc, c, m), Kvm_row r ->
      CK.run ?sp ~tb:(List.assoc c tbs.kvm_tb) uc m = (r.KV.C.r_state, r.KV.C.r_violations)
  | _ -> false

let gc_sample_rounds = 10
let setup_layer_reps = 5

let traced t ~seed ~seconds ~report =
  let set name v = Pb_report.set report name v in
  (* set-up layers *)
  let sp = S.spans () in
  for _ = 1 to setup_layer_reps do
    ignore
      (load ~on_load:(S.note sp "scn_loader.load_ns") ~on_check:(S.note sp "scn_check.check_ns") ());
    List.iter
      (fun v ->
        S.span sp "testbed.template_ns" (fun () ->
            let tmpl = Testbed.create ~domains v in
            Phys_mem.freeze tmpl.Testbed.hv.Hv.mem);
        (* the first create_pooled builds the pool's template; time a fork *)
        ignore (Testbed.create_pooled ~domains v);
        S.span sp "testbed.fork_ns" (fun () ->
            ignore (Testbed.create_pooled ~domains ~load:load_mix v)))
      Version.all
  done;
  let tbs = testbeds () and cells = cells t in
  (* GC: a fixed number of untraced rounds with the event ring open *)
  let ev = S.Gc_events.create () in
  let gc0 = Gc.quick_stat () in
  let reference, sample =
    rounds ~on_cell:(fun _ _ _ -> S.Gc_events.poll ev) tbs cells ~seed
      ~until:(S.Rounds gc_sample_rounds)
  in
  let g = S.gc_delta gc0 (Gc.quick_stat ()) in
  S.Gc_events.stop ev;
  Pb_report.set_gc report ~units:(float_of_int sample.S.attempted) g ev;
  (* exact per-cell counts, from one run of every cell *)
  let rows = Array.to_list (Array.map Option.get reference) in
  let per_cell f =
    Pb_report.exact
      (List.fold_left (fun acc r -> acc +. f (telemetry r)) 0. rows /. float_of_int (List.length rows))
  in
  let tm f = per_cell (fun (t, _) -> float_of_int (f t)) in
  set "hypercall.calls_per_cell" (tm Trace.total_hypercalls);
  set "hypercall.failed_per_cell" (tm (fun t -> t.Trace.tm_hypercalls_failed));
  set "hv.faults_per_cell" (tm (fun t -> t.Trace.tm_faults));
  set "paging.flushes_per_cell" (tm (fun t -> t.Trace.tm_flushes + t.Trace.tm_invlpgs));
  set "mm.page_type_changes_per_cell" (tm (fun t -> t.Trace.tm_page_type_changes));
  set "injector.accesses_per_cell" (tm (fun t -> t.Trace.tm_injector_accesses));
  set "vclock.vtime_ns_per_cell" (per_cell (fun (_, vt) -> Int64.to_float vt));
  (* words: one untraced Campaign.run per cell *)
  Array.iter
    (fun cell ->
      let w0 = Gc.minor_words () in
      ignore (run_cell tbs cell);
      S.note sp
        (match cell with Xen_cell _ -> "campaign.run_words.xen" | Kvm_cell _ -> "campaign.run_words.kvm")
        (Gc.minor_words () -. w0))
    cells;
  (* spans: after each cell's Campaign.run, the composition runs once
     without and once with spans; both must agree with the row *)
  let plain_ns = S.samples () and traced_ns = S.samples () and mismatches = ref 0 in
  let _, loop =
    rounds tbs cells ~seed:(seed + 1) ~until:(S.Seconds seconds) ~on_cell:(fun i row _ ->
        let t0 = S.now_ns () in
        let plain = compose tbs cells.(i) row in
        S.add plain_ns (S.elapsed_ns t0);
        let t1 = S.now_ns () in
        let traced = compose ~sp tbs cells.(i) row in
        S.add traced_ns (S.elapsed_ns t1);
        if not (plain && traced) then incr mismatches)
  in
  Pb_report.set_spans report sp;
  set "perfbench.trace_overhead_ns" (Pb_report.exact (S.median traced_ns -. S.median plain_ns));
  Pb_report.info report "composition_mismatches" (string_of_int !mismatches);
  (sample.S.attempted + loop.S.attempted, sample.S.failed + loop.S.failed + !mismatches, g)
