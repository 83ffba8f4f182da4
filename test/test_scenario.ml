(* The scenario subsystem (lib/scenario): the DSL front end, the typed
   program, the load-time checker and the register VM.

   - corpus roundtrip: parse -> disasm -> reparse is the identity over
     every file in corpus/
   - totality: the parser never raises on arbitrary or mutated text and
     the checker never raises on a mutated in-memory program — they
     return [Error] (the parser's with a position)
   - op tables: no name appears twice within one kind of a backend's
     table
   - golden result rows: each Table III and KVM program reproduces the
     row fingerprints in [Golden_rows] on every configuration of its
     backend, in both modes
   - expectations: each program's [expect] classes show up in its
     injection run on the vulnerable configuration *)

open Ii_xen
open Ii_core
open Ii_scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module SX = Ii_exploits.Scenario_xen
module SK = Ii_backends.Scenario_kvm
module XV = Scn_vm.Make (SX)
module KV = Scn_vm.Make (SK)
module KC = Ii_backends.Backends.Kvm_campaign
module BK = Ii_backends.Backend_kvm

(* [dune runtest] runs from _build/default/test (corpus is a sibling,
   materialized by the dune deps); [dune exec] runs from the root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "../corpus"

let corpus_files =
  lazy
    (Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (Filename.concat corpus_dir))

let read_file f = In_channel.with_open_bin f In_channel.input_all
let corpus_texts = lazy (List.map (fun f -> (f, read_file f)) (Lazy.force corpus_files))

let parse_exn (f, text) =
  match Scn_parser.parse text with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: %s" f (Scn_ast.error_to_string e)

let corpus_programs = lazy (List.map (fun ft -> (fst ft, parse_exn ft)) (Lazy.force corpus_texts))

(* --- corpus shape --------------------------------------------------------- *)

let test_corpus_complete () =
  let progs = Lazy.force corpus_programs in
  check_int "eight scenarios in the corpus" 8 (List.length progs);
  let names = List.map (fun (_, p) -> p.Scn_bytecode.name) progs in
  check_bool "names are unique" true (List.sort_uniq compare names = List.sort compare names);
  List.iter
    (fun n -> check_bool (n ^ " present") true (List.mem n names))
    [
      "XSA-148-priv"; "XSA-182-test"; "XSA-212-crash"; "XSA-212-priv";
      "KVM-VMCS"; "KVM-IDT"; "GNT-XDOM"; "VENOM-dm";
    ]

let check_for p =
  match Scn_bytecode.backend p with
  | Scn_bytecode.Kvm_only -> KV.check p
  | Scn_bytecode.Xen_only | Scn_bytecode.Any -> XV.check p

let test_corpus_checks () =
  List.iter
    (fun (f, p) ->
      match check_for p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s failed the load-time check: %s" f e)
    (Lazy.force corpus_programs)

(* --- roundtrips ------------------------------------------------------------ *)

let test_disasm_reparse_roundtrip () =
  List.iter
    (fun (f, p) ->
      let text = Scn_disasm.disasm p in
      match Scn_loader.load_string text with
      | Ok p' -> check_bool (f ^ ": load . disasm = id") true (p' = p)
      | Error e -> Alcotest.failf "%s: disassembly does not reparse: %s\n%s" f e text)
    (Lazy.force corpus_programs)

let test_loader_takes_source () =
  List.iter
    (fun (f, text) ->
      match Scn_loader.load_string text with
      | Ok p ->
          check_bool (f ^ ": loader = parser") true
            (p = List.assoc f (Lazy.force corpus_programs))
      | Error e -> Alcotest.failf "%s: loader rejected source: %s" f e)
    (Lazy.force corpus_texts)

(* --- totality properties --------------------------------------------------- *)

let ok_error_with_position s =
  match Scn_parser.parse s with
  | Ok _ -> true
  | Error e -> e.Scn_ast.at.Scn_ast.line >= 1 && e.Scn_ast.at.Scn_ast.col >= 1
  | exception _ -> false

let prop_parser_total_random =
  QCheck.Test.make ~name:"parser is total on arbitrary strings" ~count:500
    QCheck.(string)
    ok_error_with_position

(* Mutations of real corpus text probe deep into the grammar: a random
   splice lands mid-statement far more often than a random string. *)
let mutated_corpus_gen =
  QCheck.Gen.(
    let* which = int_bound 5 in
    let* pos = int_bound 4096 in
    let* what = int_bound 2 in
    let* c = char in
    return (which, pos, what, c))

let mutate (which, pos, what, c) =
  let texts = Lazy.force corpus_texts in
  let _, text = List.nth texts (which mod List.length texts) in
  let n = String.length text in
  let pos = pos mod n in
  match what with
  | 0 -> String.sub text 0 pos (* truncate *)
  | 1 -> String.mapi (fun i ch -> if i = pos then c else ch) text (* flip *)
  | _ -> String.sub text 0 pos ^ String.make 1 c ^ String.sub text pos (n - pos) (* insert *)

let prop_parser_total_mutated =
  QCheck.Test.make ~name:"parser is total on mutated corpus text" ~count:500
    (QCheck.make mutated_corpus_gen)
    (fun m -> ok_error_with_position (mutate m))

(* The checker answers every program a generator or a mutating fuzzer
   may hand it without raising, and a program it admits builds its use
   case and expectations on both backends. *)
let usable p' =
  let on check use_case =
    match check p' with
    | Error _ -> true
    | Ok () -> (
        match (use_case p', Scn_bytecode.expected_violations p') with
        | _ -> true
        | exception _ -> false)
    | exception _ -> false
  in
  on XV.check XV.use_case && on KV.check KV.use_case

(* Corrupt one instruction of a real program in memory: one register
   operand or jump target set to any int, or one call/env name set to
   any string (a random one, or a name some backend knows). *)
let corrupt field v s (i : Scn_bytecode.instr) : Scn_bytecode.instr =
  let first a = Array.mapi (fun k r -> if k = 0 then v else r) a in
  match (field, i) with
  | 0, Set (_, x) -> Set (v, x)
  | 0, Add (r, _, x) -> Add (r, v, x)
  | 0, Env (_, n, x) -> Env (v, n, x)
  | 0, Pte_of (r, _, f) -> Pte_of (r, v, f)
  | 0, Entry_maddr (r, m, _) -> Entry_maddr (r, m, v)
  | 0, Entry_linear (_, m, x) -> Entry_linear (v, m, x)
  | 0, Hypercall (r, n, a) -> Hypercall (r, n, first a)
  | 0, Inject_read (r, a, _) -> Inject_read (r, a, v)
  | 0, Logf (f, a) -> Logf (f, first a)
  | 0, Inject (a, r, _) -> Inject (a, r, v)
  | 0, Host_write (_, x) -> Host_write (v, x)
  | 0, Guest (n, a) -> Guest (n, first a)
  | 0, Payload (n, a) -> Payload (n, first a)
  | 0, State (n, a) -> State (n, first a)
  | 0, Rc_reg _ -> Rc_reg v
  | 0, If_neg (_, pc) -> If_neg (v, pc)
  | 1, Env (r, _, x) -> Env (r, s, x)
  | 1, Hypercall (r, _, a) -> Hypercall (r, s, a)
  | 1, Guest (_, a) -> Guest (s, a)
  | 1, Payload (_, a) -> Payload (s, a)
  | 1, State (_, a) -> State (s, a)
  | 2, Goto _ -> Goto v
  | 2, If_err _ -> If_err v
  | 2, If_neg (r, _) -> If_neg (r, v)
  | _ -> i

(* Every name of each kind in a backend's op table, per backend. *)
let kinds (t : (_, _) Scn_ops.table) =
  Scn_ops.
    [
      ("environment symbol", names t.env);
      ("hypercall", names t.hypercalls);
      ("guest op", names t.guest_ops);
      ("payload", names t.payloads);
      ("erroneous state", names t.states);
    ]

let tables = [ ("xen", kinds SX.ops); ("kvm", kinds SK.ops) ]

let known_names =
  List.concat_map (fun (_, ks) -> List.concat_map snd ks) tables @ Scn_ast.violation_classes

let name_gen = QCheck.(oneof [ string_printable; oneofl known_names ])

let prop_checker_total_corrupted =
  QCheck.Test.make ~name:"checker is total on corrupted bytecode" ~count:500
    QCheck.(
      quad (pair (int_bound 7) (int_bound 4095)) (int_bound 2)
        (oneof [ int_range (-2) 40; int ])
        name_gen)
    (fun ((which, pos), field, v, s) ->
      let progs = Lazy.force corpus_programs in
      let _, p = List.nth progs (which mod List.length progs) in
      let exploit = Array.copy p.exploit and inject = Array.copy p.inject in
      let pos = pos mod (Array.length exploit + Array.length inject) in
      let sec, pc =
        if pos < Array.length exploit then (exploit, pos) else (inject, pos - Array.length exploit)
      in
      sec.(pc) <- corrupt field v s sec.(pc);
      usable { p with exploit; inject })

(* Corrupt the header of a real program: replace or add an expected
   violation class (any string, or a name some backend knows), or
   retag the program for another backend. *)
let prop_checker_guards_header =
  QCheck.Test.make ~name:"checker guards header indices" ~count:500
    QCheck.(
      quad (int_bound 7) (int_bound 2)
        (oneofl Scn_bytecode.[ Any; Xen_only; Kvm_only ])
        name_gen)
    (fun (which, field, tag, s) ->
      let progs = Lazy.force corpus_programs in
      let _, p = List.nth progs (which mod List.length progs) in
      let p' =
        match field with
        | 0 -> { p with expect = (match p.expect with _ :: tl -> s :: tl | [] -> [ s ]) }
        | 1 -> { p with expect = p.expect @ [ s ] }
        | _ -> { p with backend = tag }
      in
      usable p')

(* --- golden result rows ---------------------------------------------------- *)

let modes = [ Campaign.Real_exploit; Campaign.Injection ]

let xen_program name =
  let _, p =
    List.find (fun (_, p) -> p.Scn_bytecode.name = name) (Lazy.force corpus_programs)
  in
  check_bool (name ^ " checks") true (XV.check p = Ok ());
  XV.use_case p

let kvm_program name =
  let _, p =
    List.find (fun (_, p) -> p.Scn_bytecode.name = name) (Lazy.force corpus_programs)
  in
  check_bool (name ^ " checks") true (KV.check p = Ok ());
  KV.use_case p

let mode_of_string = function
  | "exploit" -> Campaign.Real_exploit
  | "injection" -> Campaign.Injection
  | m -> Alcotest.failf "bad mode in fixture: %s" m

let check_fixture fixture row_of =
  List.iter
    (fun (name, config, mode, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s %s: row fingerprint" name config mode)
        want
        (row_of name config (mode_of_string mode)))
    fixture

(* Every Table III corpus program, on every Xen version and in both
   modes, reproduces the row fingerprint that [Golden_rows] captured
   from the hand-written use-case modules. *)
let test_golden_xen_rows () =
  check_int "xen cells pinned" (4 * List.length Version.all * 2) (List.length Golden_rows.xen);
  check_fixture Golden_rows.xen (fun name config mode ->
      Fingerprint.Xen.row
        (Campaign.run (xen_program name) mode (Fingerprint.Xen.config_of_string config)))

(* The same for the KVM corpus programs on every KVM configuration. *)
let test_golden_kvm_rows () =
  check_int "kvm cells pinned" (2 * List.length BK.configs * 2) (List.length Golden_rows.kvm);
  check_fixture Golden_rows.kvm (fun name config mode ->
      Fingerprint.Kvm.row
        (KC.run (kvm_program name) mode (Fingerprint.Kvm.config_of_string config)))

(* Every corpus cell at the benchmark's [corpus] shape — 4 domains
   under the default load, one long-lived pooled testbed per
   configuration — reproduces the virtual time and the full telemetry
   [Golden_cells] captured: the per-cell counts a speed-only change
   must leave identical. *)
let test_golden_corpus_cells () =
  let programs = List.map snd (Lazy.force corpus_programs) in
  let kvm_only p = Scn_bytecode.backend p = Scn_bytecode.Kvm_only in
  let find name =
    match List.find_opt (fun p -> p.Scn_bytecode.name = name) programs with
    | Some p -> p
    | None -> Alcotest.failf "no corpus program %s" name
  in
  let check_cells fixture ~configs ~config_to_string ~create ~run =
    let tbs = List.map (fun c -> (config_to_string c, (c, create c))) configs in
    List.iter
      (fun (name, config, mode, vtime, tm) ->
        let c, tb = List.assoc config tbs in
        let vtime', tm' = run ~tb (find name) (mode_of_string mode) c in
        let cell = Printf.sprintf "%s %s %s" name config mode in
        Alcotest.(check int64) (cell ^ ": r_vtime_ns") vtime vtime';
        Alcotest.(check string) (cell ^ ": telemetry") tm tm')
      fixture
  in
  let load = Ii_trace.Load_mix.default in
  let count f = List.length (List.filter f programs) in
  check_int "xen cells pinned"
    (count (fun p -> not (kvm_only p)) * List.length Version.all * 2)
    (List.length Golden_cells.xen);
  check_int "kvm cells pinned" (count kvm_only * List.length BK.configs * 2)
    (List.length Golden_cells.kvm);
  check_cells Golden_cells.xen ~configs:Version.all ~config_to_string:Version.to_string
    ~create:(Substrate_xen.create_pooled ~domains:4 ~load)
    ~run:(fun ~tb p mode v ->
      let r = Campaign.run ~tb (XV.use_case p) mode v in
      (r.Campaign.r_vtime_ns, Fingerprint.Xen.telemetry r.Campaign.r_telemetry));
  check_cells Golden_cells.kvm ~configs:BK.configs ~config_to_string:BK.config_to_string
    ~create:(BK.create_pooled ~domains:4 ~load)
    ~run:(fun ~tb p mode c ->
      let r = KC.run ~tb (KV.use_case p) mode c in
      (r.KC.r_vtime_ns, Fingerprint.Kvm.telemetry r.KC.r_telemetry))

(* Every corpus program's [expect] classes show up in its injection run
   on the vulnerable configuration of its backend; Xen programs also at
   four domains under the default background load. *)
let test_expected_violations () =
  let check f p shape observed =
    let classes = List.map Scn_ast.violation_class observed in
    List.iter
      (fun c ->
        check_bool (Printf.sprintf "%s (%s): expected %s observed" f shape c) true
          (List.mem c classes))
      (Scn_bytecode.expected_violations p)
  in
  List.iter
    (fun (f, p) ->
      check_bool (f ^ ": declares expected violations") true
        (Scn_bytecode.expected_violations p <> []);
      match Scn_bytecode.backend p with
      | Scn_bytecode.Kvm_only ->
          check f p "kvm"
            (KC.run (KV.use_case p) Campaign.Injection BK.rq1_config).KC.r_violations
      | Scn_bytecode.Xen_only | Scn_bytecode.Any ->
          let uc = XV.use_case p and version = Substrate_xen.rq1_config in
          check f p "xen" (Campaign.run uc Campaign.Injection version).Campaign.r_violations;
          check f p "xen, 4 domains, default load"
            (Campaign.run ~domains:4 ~load:Ii_trace.Load_mix.default uc Campaign.Injection
               version)
              .Campaign.r_violations)
    (Lazy.force corpus_programs)

(* The corpus through the scheduler's batching path: same rows as the
   one-at-a-time runs, so scenarios shard like legacy modules. *)
let test_run_corpus_matches_run () =
  let progs =
    List.filter_map
      (fun (_, p) ->
        match Scn_bytecode.backend p with Scn_bytecode.Xen_only -> Some p | _ -> None)
      (Lazy.force corpus_programs)
  in
  let rows =
    Campaign.run_matrix ~workers:2 (List.map XV.use_case progs) ~versions:[ Version.V4_6 ] ~modes
  in
  List.iter
    (fun p ->
      let uc = XV.use_case p in
      List.iter
        (fun mode ->
          let direct = Campaign.run uc mode Version.V4_6 in
          let sharded =
            List.find
              (fun r ->
                r.Campaign.r_use_case = p.Scn_bytecode.name && r.Campaign.r_mode = mode)
              rows
          in
          check_bool
            (Printf.sprintf "%s %s: scheduler row = direct row" p.Scn_bytecode.name
               (Campaign.mode_to_string mode))
            true (direct = sharded))
        modes)
    progs

(* --- cross-domain scenarios ------------------------------------------------ *)

(* The two multi-domain scenarios, run the way the CI cross-domain gate
   runs them: four guest domains, default background mix. The injection
   campaign must leave a casualty in a bystander domain (a per-domain
   violation row other than the attacker-host row), record/replay must
   stay byte-identical — snapshot AND virtual-timestamp stream — with
   the load running, and attribution must resolve every violation to a
   non-empty origin set. *)
let test_crossdomain_scenarios () =
  let load = Ii_trace.Load_mix.default in
  let version = Substrate_xen.rq1_config in
  List.iter
    (fun name ->
      let uc = xen_program name in
      let row = Campaign.run ~domains:4 ~load uc Campaign.Injection version in
      check_bool (name ^ ": injected state present") true row.Campaign.r_state;
      check_bool (name ^ ": bystander domain affected") true
        (List.exists (fun (d, vs) -> d <> "host" && vs <> []) row.Campaign.r_domains);
      List.iter
        (fun mode ->
          let r = Trace_driver.record ~domains:4 ~load uc mode version in
          let o = Trace_driver.replay r in
          check_bool
            (Printf.sprintf "%s %s: replay equal under load" name
               (Campaign.mode_to_string mode))
            true o.Trace_driver.rp_equal;
          check_bool
            (Printf.sprintf "%s %s: vts stream equal under load" name
               (Campaign.mode_to_string mode))
            true o.Trace_driver.rp_vts_equal)
        modes;
      let a = Attribution.attribute ~domains:4 ~load uc Campaign.Injection version in
      check_bool (name ^ ": every violation attributed") true (Attribution.complete a))
    [ "GNT-XDOM"; "VENOM-dm" ]

(* --- checker specifics ----------------------------------------------------- *)

let parse_str s =
  match Scn_parser.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected parse error: %s" (Scn_ast.error_to_string e)

let minimal ~backend ~body =
  Printf.sprintf
    {|scenario "T" {
  xsa "-"
  backend %s
  description "t"
  model {
    name "IM-t"
    source unprivileged-guest
    interface hypercall "h"
    target memory-management
    functionality "Write Unauthorized Arbitrary Memory"
    summary "t"
  }
  exploit {
%s
  }
  inject {
    halt
  }
}|}
    backend body

let test_checker_gates () =
  (* an unknown payload name is a load-time error, not a VM trap *)
  let p = parse_str (minimal ~backend:"xen" ~body:"    payload no-such-payload") in
  check_bool "unknown payload rejected" true (Result.is_error (XV.check p));
  (* host writes exist on KVM but not on the Xen PV substrate *)
  let p = parse_str (minimal ~backend:"any" ~body:"    r0 = 1\n    host-w64 r0 r0") in
  check_bool "host-w64 rejected on xen" true (Result.is_error (XV.check p));
  check_bool "host-w64 allowed on kvm" true (KV.check p = Ok ());
  (* backend fences: a kvm-only program may not run on the xen VM *)
  let p = parse_str (minimal ~backend:"kvm" ~body:"    halt") in
  check_bool "kvm-only incompatible with xen" true (not (XV.compatible p));
  check_bool "kvm-only compatible with kvm" true (KV.compatible p);
  (* jumps out of the section are load-time errors *)
  (match Scn_parser.parse (minimal ~backend:"xen" ~body:"    if-err nowhere") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined label accepted");
  (* env argument range: kernel-l1 takes 0..511 *)
  let p = parse_str (minimal ~backend:"xen" ~body:"    r0 = kernel-l1 9999") in
  check_bool "env arg out of range rejected" true (Result.is_error (XV.check p))

(* --- op tables ----------------------------------------------------------------- *)

(* A string [match] flagged a repeated case as unused at compile time;
   a list table silently shadows the later entry. *)
let test_op_names_unique () =
  List.iter
    (fun (backend, kinds) ->
      List.iter
        (fun (kind, names) ->
          let rec repeated = function
            | [] -> None
            | n :: rest -> if List.mem n rest then Some n else repeated rest
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s %s names are unique" backend kind)
            None (repeated names))
        kinds)
    tables

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "scenario"
    [
      ( "corpus",
        [
          Alcotest.test_case "complete" `Quick test_corpus_complete;
          Alcotest.test_case "checks" `Quick test_corpus_checks;
          Alcotest.test_case "disasm/reparse roundtrip" `Quick test_disasm_reparse_roundtrip;
          Alcotest.test_case "loader takes source" `Quick test_loader_takes_source;
        ] );
      ( "totality",
        qsuite
          [
            prop_parser_total_random;
            prop_parser_total_mutated;
            prop_checker_total_corrupted;
            prop_checker_guards_header;
          ] );
      ( "golden",
        [
          Alcotest.test_case "xen result rows" `Quick test_golden_xen_rows;
          Alcotest.test_case "kvm result rows" `Quick test_golden_kvm_rows;
          Alcotest.test_case "corpus-shape cells" `Quick test_golden_corpus_cells;
          Alcotest.test_case "expected violations" `Quick test_expected_violations;
          Alcotest.test_case "scheduler path" `Quick test_run_corpus_matches_run;
          Alcotest.test_case "cross-domain" `Quick test_crossdomain_scenarios;
        ] );
      ( "checker",
        [
          Alcotest.test_case "gates" `Quick test_checker_gates;
          Alcotest.test_case "op names unique per kind" `Quick test_op_names_unique;
        ] );
    ]
