(* Coverage observability: the deterministic coverage maps of
   lib/trace/coverage.ml and their end-to-end contracts.

   - map algebra: merge is a commutative idempotent OR, diff inverts it,
     novelty is popcount-of-diff (unit + qcheck properties)
   - renderers: hex and JSON round-trip byte-for-byte; the FNV hash and
     the Prometheus label escaping are pinned
   - determinism: campaign coverage maps are byte-identical across
     worker counts, forked vs booted testbeds, the batching scheduler's
     materialized and streamed paths, and record vs replay — on both
     backends
   - corpus: every scenario contributes novelty on first sight *)

open Ii_trace
open Ii_xen
open Ii_core
open Ii_scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* [dune runtest] runs from _build/default/test (corpus is a sibling,
   materialized by the dune deps); [dune exec] runs from the root. *)
let corpus_dir = if Sys.file_exists "corpus" then "corpus" else "../corpus"

(* --- axes ---------------------------------------------------------------- *)

let region m name =
  match List.assoc_opt name (Coverage.region_bits m) with
  | Some n -> n
  | None -> Alcotest.failf "no region %s" name

let test_axes () =
  let c = Coverage.create () in
  Coverage.note_violation c ~cls:1 ~domain:"guest03";
  Coverage.note_violation c ~cls:1 ~domain:"guest03";
  Coverage.note_prov c ~consumer:3 ~origin_kind:1;
  Coverage.note_port c ~nr:7 ~outcome:0;
  Coverage.note_port c ~nr:7 ~outcome:22;
  Coverage.note_record c 5;
  Coverage.note_scn_edge c ~section:0 ~prev:0xffffff ~pc:0;
  let m = Coverage.snapshot c in
  check_int "violation" 1 (region m "violation");
  check_int "provenance" 1 (region m "provenance");
  check_int "port" 2 (region m "port");
  check_int "scn_edge" 1 (region m "scn_edge");
  check_int "record" 1 (region m "record");
  check_int "total" 6 (Coverage.popcount m);
  check_bool "not empty" false (Coverage.is_empty m);
  (* out-of-range inputs clamp modularly instead of raising *)
  Coverage.note_violation c ~cls:(-17) ~domain:"";
  Coverage.note_port c ~nr:100000 ~outcome:(-3);
  Coverage.note_record c 9999;
  ignore (Coverage.snapshot c)

let test_scn_buckets () =
  (* hit counts bucketize AFL-style: revisiting an edge lights new
     bucket bits at 1, 2, 3, 4, 8, 16, 32 and 128 hits *)
  let bits_after hits =
    let c = Coverage.create () in
    for _ = 1 to hits do
      Coverage.note_scn_edge c ~section:1 ~prev:4 ~pc:5
    done;
    region (Coverage.snapshot c) "scn_edge"
  in
  check_int "1 hit" 1 (bits_after 1);
  check_int "2 hits" 1 (bits_after 2);
  check_int "7 hits" 1 (bits_after 7);
  check_int "8 hits" 1 (bits_after 8);
  check_bool "more hits, different bucket" true (Coverage.count_bucket 1 <> Coverage.count_bucket 200);
  check_int "bucket of 1" 0 (Coverage.count_bucket 1);
  check_int "bucket of 2" 1 (Coverage.count_bucket 2);
  check_int "bucket of 3" 2 (Coverage.count_bucket 3);
  check_int "bucket of 7" 3 (Coverage.count_bucket 7);
  check_int "bucket of 15" 4 (Coverage.count_bucket 15);
  check_int "bucket of 31" 5 (Coverage.count_bucket 31);
  check_int "bucket of 127" 6 (Coverage.count_bucket 127);
  check_int "bucket of 128" 7 (Coverage.count_bucket 128)

let test_slot_helpers () =
  check_bool "domain_slot in range" true
    (List.for_all
       (fun d ->
         let s = Coverage.domain_slot d in
         s >= 0 && s < 32)
       [ "host"; "guest03"; "xen3"; ""; "a-very-long-domain-name" ]);
  check_bool "scn_slot in range" true
    (let s = Coverage.scn_slot ~section:255 ~prev:0xffffff ~pc:1023 in
     s >= 0 && s < 1024);
  (* distinct domains shouldn't all collide *)
  check_bool "domain slots spread" true
    (Coverage.domain_slot "guest01" <> Coverage.domain_slot "guest03"
    || Coverage.domain_slot "host" <> Coverage.domain_slot "guest03")

(* --- algebra (unit) ------------------------------------------------------ *)

let sample_map ints =
  let c = Coverage.create () in
  List.iter
    (fun i ->
      let i = abs i in
      match i mod 5 with
      | 0 -> Coverage.note_violation c ~cls:(i / 5) ~domain:(string_of_int (i / 30))
      | 1 -> Coverage.note_prov c ~consumer:(i / 5) ~origin_kind:(i / 40)
      | 2 -> Coverage.note_port c ~nr:(i / 5) ~outcome:(i / 320)
      | 3 -> Coverage.note_scn_edge c ~section:(i land 0xff) ~prev:(i / 7) ~pc:(i / 3)
      | _ -> Coverage.note_record c (i / 5))
    ints;
  Coverage.snapshot c

let test_algebra () =
  let a = sample_map [ 1; 2; 3; 40; 55; 123; 999 ] in
  let b = sample_map [ 3; 7; 88; 1000; 4567 ] in
  check_bool "merge commutes" true (Coverage.equal (Coverage.merge a b) (Coverage.merge b a));
  check_bool "merge idempotent" true (Coverage.equal (Coverage.merge a a) a);
  check_bool "empty is identity" true (Coverage.equal (Coverage.merge a Coverage.empty) a);
  check_bool "diff of self is empty" true (Coverage.is_empty (Coverage.diff a a));
  check_bool "diff/merge round-trip" true
    (Coverage.equal (Coverage.merge b (Coverage.diff a b)) (Coverage.merge a b));
  check_int "novelty against self" 0 (Coverage.novelty a ~against:a);
  check_int "novelty against empty" (Coverage.popcount a)
    (Coverage.novelty a ~against:Coverage.empty);
  check_int "novelty is popcount of diff"
    (Coverage.popcount (Coverage.diff a b))
    (Coverage.novelty a ~against:b)

(* --- renderers ----------------------------------------------------------- *)

let test_renderers_roundtrip () =
  let m = sample_map [ 11; 22; 33; 44; 55; 666; 7777 ] in
  (match Coverage.of_hex (Coverage.to_hex m) with
  | Ok m' -> check_bool "hex round-trip" true (Coverage.equal m m')
  | Error e -> Alcotest.fail e);
  (match Coverage.of_json_map (Coverage.to_json m) with
  | Ok m' -> check_bool "json round-trip" true (Coverage.equal m m')
  | Error e -> Alcotest.fail e);
  check_bool "of_hex rejects short input" true (Result.is_error (Coverage.of_hex "abcd"));
  check_bool "of_json_map rejects maplessness" true
    (Result.is_error (Coverage.of_json_map "{\"bits\":3}"))

let test_hash_pinned () =
  (* the FNV-1a-64 of 1328 zero bytes: pins both the map size and the
     hash function; a layout change must show up here *)
  check_string "empty map hash" "1e93b06b2b33bae5"
    (Printf.sprintf "%016Lx" (Coverage.hash Coverage.empty));
  check_int "size_bits" 10624 Coverage.size_bits;
  (* same feed, same hash — across independent collectors *)
  let m1 = sample_map [ 5; 17; 29 ] and m2 = sample_map [ 5; 17; 29 ] in
  check_bool "hash deterministic" true (Coverage.hash m1 = Coverage.hash m2);
  check_bool "hash discriminates" true (Coverage.hash m1 <> Coverage.hash Coverage.empty)

let test_publish () =
  let reg = Metrics.create () in
  let m = sample_map [ 2; 7; 12 ] in
  Coverage.publish ~labels:[ ("backend", "xen") ] reg m;
  let out = Metrics.render_prometheus reg in
  check_bool "coverage_bits_total present" true (contains ~affix:"coverage_bits_total" out)

let test_prometheus_escaping () =
  (* satellite regression: label values containing backslashes, quotes
     and newlines must escape exactly per the exposition format (%S
     would also mangle tabs and non-ASCII bytes) *)
  let reg = Metrics.create () in
  let g =
    Metrics.gauge reg
      ~labels:[ ("path", "C:\\tmp"); ("msg", "say \"hi\"\nnow"); ("tab", "a\tb") ]
      "escape_test"
  in
  Metrics.set g 1.0;
  check_string "prometheus escaping pinned"
    "# TYPE escape_test gauge\n\
     escape_test{msg=\"say \\\"hi\\\"\\nnow\",path=\"C:\\\\tmp\",tab=\"a\tb\"} 1\n"
    (Metrics.render_prometheus reg);
  (* the JSON renderer escapes its keys too *)
  let reg2 = Metrics.create () in
  Metrics.set (Metrics.gauge reg2 ~labels:[ ("k\"ey", "v") ] "g") 2.0;
  check_bool "json renderer stays parseable" true
    (contains ~affix:"\"k\\\"ey\":\"v\"" (Metrics.render_json reg2))

(* --- qcheck properties --------------------------------------------------- *)

let arb_ints = QCheck.(list_of_size (Gen.int_bound 40) (int_bound 100_000))
let arb_map = QCheck.map sample_map arb_ints

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:200 (QCheck.pair arb_map arb_map)
    (fun (a, b) -> Coverage.equal (Coverage.merge a b) (Coverage.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge is idempotent" ~count:200 arb_map (fun a ->
      Coverage.equal (Coverage.merge a a) a)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:200
    (QCheck.triple arb_map arb_map arb_map)
    (fun (a, b, c) ->
      Coverage.equal
        (Coverage.merge a (Coverage.merge b c))
        (Coverage.merge (Coverage.merge a b) c))

let prop_diff_merge_roundtrip =
  QCheck.Test.make ~name:"merge b (diff a b) = merge a b" ~count:200
    (QCheck.pair arb_map arb_map) (fun (a, b) ->
      Coverage.equal (Coverage.merge b (Coverage.diff a b)) (Coverage.merge a b))

let prop_novelty_zero_on_repeat =
  QCheck.Test.make ~name:"cumulative novelty hits zero on repeated identical trials"
    ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) arb_map)
    (fun ms ->
      (* run the same trial sequence twice; the second pass must report
         zero novelty everywhere, and the first pass's novelty must sum
         to the union's popcount (novelty never double-counts) *)
      let acc = ref Coverage.empty in
      let novelty m =
        let n = Coverage.novelty m ~against:!acc in
        acc := Coverage.merge !acc m;
        n
      in
      let first = List.map novelty ms in
      let second = List.map novelty ms in
      List.for_all (fun n -> n = 0) second
      && List.fold_left ( + ) 0 first = Coverage.popcount !acc)

let prop_novelty_monotone =
  QCheck.Test.make ~name:"novelty of a fixed map is non-increasing as coverage accumulates"
    ~count:100
    (QCheck.pair arb_map (QCheck.list_of_size (QCheck.Gen.int_bound 6) arb_map))
    (fun (m, ms) ->
      let acc = ref Coverage.empty in
      let seq =
        List.map
          (fun other ->
            let n = Coverage.novelty m ~against:!acc in
            acc := Coverage.merge !acc other;
            n)
          (ms @ [ m ])
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing seq)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex round-trips" ~count:200 arb_map (fun m ->
      match Coverage.of_hex (Coverage.to_hex m) with
      | Ok m' -> Coverage.equal m m'
      | Error _ -> false)

(* [of_json_map] is total: arbitrary text, and [to_json] output cut
   short or with one byte replaced, read as a map or an error — never an
   exception — and an intact document reads back its own map. *)
let arb_json_text =
  let open QCheck.Gen in
  let damaged =
    let* m = QCheck.gen arb_map in
    let doc = Coverage.to_json m in
    let* pos = int_bound (String.length doc - 1) in
    let* c = char in
    let* cut = bool in
    return
      (if cut then String.sub doc 0 pos
       else String.mapi (fun i x -> if i = pos then c else x) doc)
  in
  QCheck.make ~print:(Printf.sprintf "%S") (oneof [ string; damaged ])

let prop_json_map_total =
  QCheck.Test.make ~name:"of_json_map never raises" ~count:500 arb_json_text (fun s ->
      match Coverage.of_json_map s with Ok _ | Error _ -> true | exception _ -> false)

let prop_json_map_roundtrip =
  QCheck.Test.make ~name:"of_json_map reads back to_json" ~count:200 arb_map (fun m ->
      match Coverage.of_json_map (Coverage.to_json m) with
      | Ok m' -> Coverage.equal m m'
      | Error _ -> false)

(* --- campaign determinism ------------------------------------------------ *)

let some_ucs n = List.filteri (fun i _ -> i < n) Ii_exploits.All_exploits.use_cases

let matrix ~workers ?domains ?load ucs =
  let acc = ref Coverage.empty in
  let rows =
    Campaign.run_matrix ~workers ?domains ?load ~coverage:acc ucs
      ~versions:[ Version.V4_6 ]
      ~modes:[ Campaign.Real_exploit; Campaign.Injection ]
  in
  (List.map (fun r -> (r.Campaign.r_coverage, r.Campaign.r_cov_novelty)) rows, !acc)

let test_matrix_workers_invariant () =
  let ucs = some_ucs 3 in
  let rows1, cum1 = matrix ~workers:1 ucs in
  let rows3, cum3 = matrix ~workers:3 ucs in
  check_bool "cumulative maps byte-identical" true (Coverage.equal cum1 cum3);
  check_bool "per-row maps and novelty identical" true
    (List.for_all2
       (fun (m1, n1) (m3, n3) ->
         n1 = n3
         &&
         match (m1, m3) with
         | Some m1, Some m3 -> Coverage.equal m1 m3
         | None, None -> true
         | _ -> false)
       rows1 rows3);
  check_bool "cumulative non-empty" false (Coverage.is_empty cum1)

(* A COW fork and a fresh boot, each a loaded multi-domain testbed with
   a collector attached, run the same cells one [Campaign.run] at a time:
   equal rows (maps included) and equal cumulative maps. *)
let test_matrix_pooled_invariant () =
  let load = Load_mix.default in
  let cells tb =
    Trace.set_coverage (Substrate_xen.trace tb) (Some (Coverage.create ()));
    let rows =
      List.concat_map
        (fun uc ->
          List.map
            (fun mode -> Campaign.run ~tb uc mode Version.V4_6)
            [ Campaign.Real_exploit; Campaign.Injection ])
        (some_ucs 2)
    in
    let cum =
      List.fold_left
        (fun acc r -> Coverage.merge acc (Option.get r.Campaign.r_coverage))
        Coverage.empty rows
    in
    (rows, cum)
  in
  let fresh_rows, fresh = cells (Ii_guest.Testbed.create ~domains:4 ~load Version.V4_6) in
  let pooled_rows, pooled = cells (Ii_guest.Testbed.create_pooled ~domains:4 ~load Version.V4_6) in
  check_bool "pooled rows = fresh rows" true (fresh_rows = pooled_rows);
  check_bool "pooled map = fresh map" true (Coverage.equal fresh pooled);
  check_bool "the map is not empty" false (Coverage.is_empty fresh)

let test_matrix_detached_rows () =
  (* without ~coverage the rows must look exactly like pre-coverage rows *)
  let rows =
    Campaign.run_matrix ~workers:1 (some_ucs 1) ~versions:[ Version.V4_6 ]
      ~modes:[ Campaign.Injection ]
  in
  List.iter
    (fun r ->
      check_bool "no map" true (r.Campaign.r_coverage = None);
      check_int "no novelty" 0 r.Campaign.r_cov_novelty)
    rows

(* --- scheduler determinism ----------------------------------------------- *)

let test_scheduler_coverage_invariant () =
  let versions = [ Version.V4_6 ] in
  let trials = 6 in
  let cum workers =
    let acc = ref Coverage.empty in
    ignore (Campaign_scheduler.run ~seed:42L ~workers ~coverage:acc ~trials versions);
    !acc
  in
  let c1 = cum 1 and c3 = cum 3 in
  check_bool "scheduler workers 1 = 3" true (Coverage.equal c1 c3);
  check_bool "scheduler map non-empty" false (Coverage.is_empty c1);
  (* the streamed path merges in scheduler order; OR-merge makes that
     invisible *)
  let acc = ref Coverage.empty in
  ignore (Campaign_scheduler.run_streamed ~seed:42L ~workers:3 ~coverage:acc ~trials versions);
  check_bool "streamed = materialized" true (Coverage.equal c1 !acc)

(* A randomized trial runs on [Campaign.trial], so its coverage map
   credits each violation to the domain [Monitor.violations_tagged]
   names, like every other trial: the interrupt-storm hook's violation
   is observed in the victim guest, not the host. *)
let test_random_trial_violation_domain () =
  let storm v = contains ~affix:"interrupt storm on guest01" (Monitor.violation_to_string v) in
  (* the first seed whose one trial's only violation is a storm *)
  let rec find seed =
    if seed >= 64L then Alcotest.fail "no lone interrupt-storm trial in 64 seeds"
    else
      let acc = ref Coverage.empty in
      match
        Campaign_scheduler.run ~seed ~targets:[ Random_campaign.Component_hooks ] ~coverage:acc
          ~trials:1 [ Version.V4_6 ]
      with
      | [ { Random_campaign.trials = [ { Random_campaign.t_violations = [ v ]; _ } ]; _ } ]
        when storm v ->
          (v, !acc)
      | _ -> find (Int64.succ seed)
  in
  let v, m = find 0L in
  let bit domain =
    let one = Coverage.create () in
    Coverage.note_violation one ~cls:(Monitor.class_index v) ~domain;
    Coverage.snapshot one
  in
  check_int "the victim's violation bit is set" 0 (Coverage.novelty (bit "guest01") ~against:m);
  check_int "the host's is not" 1 (Coverage.novelty (bit "host") ~against:m)

(* --- record/replay ------------------------------------------------------- *)

let test_replay_reproduces_map_xen () =
  let uc =
    match Ii_exploits.All_exploits.find "XSA-212-priv" with
    | Some uc -> uc
    | None -> Alcotest.fail "no XSA-212-priv"
  in
  List.iter
    (fun mode ->
      let r = Trace_driver.record ~provenance:true ~coverage:true uc mode Version.V4_6 in
      (match r.Trace_driver.rec_cov with
      | None -> Alcotest.fail "recording has no coverage map"
      | Some m ->
          check_bool "recorded map non-empty" false (Coverage.is_empty m);
          check_bool "record axis populated (ring was recording)" true (region m "record" > 0));
      let rp = Trace_driver.replay r in
      check_bool "replay final state equal" true rp.Trace_driver.rp_equal;
      check_bool "replay vts equal" true rp.Trace_driver.rp_vts_equal;
      check_bool "replay coverage map byte-identical" true rp.Trace_driver.rp_cov_equal)
    [ Campaign.Real_exploit; Campaign.Injection ]

let test_replay_reproduces_map_scenario () =
  (* a corpus scenario records Scn_edge events; replay refeeds the
     scn_edge axis from the ring without running the VM *)
  let module XV = Scn_vm.Make (Ii_exploits.Scenario_xen) in
  let p =
    match Scn_loader.load_file (Filename.concat corpus_dir "xsa212_priv.scn") with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let uc = XV.use_case p in
  let r = Trace_driver.record ~coverage:true uc Campaign.Injection Version.V4_6 in
  (match r.Trace_driver.rec_cov with
  | None -> Alcotest.fail "no coverage map"
  | Some m -> check_bool "scn_edge axis populated" true (region m "scn_edge" > 0));
  let rp = Trace_driver.replay r in
  check_bool "replay vts equal" true rp.Trace_driver.rp_vts_equal;
  check_bool "replay coverage map byte-identical" true rp.Trace_driver.rp_cov_equal

let test_replay_reproduces_map_kvm () =
  let module KT = Ii_backends.Backends.Kvm_trace in
  let uc =
    match
      List.find_opt
        (fun uc -> uc.Ii_backends.Backends.Kvm_campaign.uc_name = "KVM-VMCS")
        Ii_exploits.All_exploits.kvm_use_cases
    with
    | Some uc -> uc
    | None -> Alcotest.fail "no KVM-VMCS"
  in
  List.iter
    (fun mode ->
      let r = KT.record ~coverage:true uc mode Ii_backends.Backend_kvm.Stock in
      (match r.KT.rec_cov with
      | None -> Alcotest.fail "recording has no coverage map"
      | Some m -> check_bool "recorded map non-empty" false (Coverage.is_empty m));
      let rp = KT.replay r in
      check_bool "replay final state equal" true rp.KT.rp_equal;
      check_bool "replay vts equal" true rp.KT.rp_vts_equal;
      check_bool "replay coverage map byte-identical" true rp.KT.rp_cov_equal)
    [ Campaign.Real_exploit; Campaign.Injection ]

(* --- corpus novelty ------------------------------------------------------ *)

let corpus_programs =
  lazy
    (Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
    |> List.map (fun f ->
           match Scn_loader.load_file (Filename.concat corpus_dir f) with
           | Ok p -> p
           | Error e -> Alcotest.failf "%s: %s" f e))

let test_corpus_first_run_novelty () =
  let module XV = Scn_vm.Make (Ii_exploits.Scenario_xen) in
  let module KV = Scn_vm.Make (Ii_backends.Scenario_kvm) in
  let module KC = Ii_backends.Backends.Kvm_campaign in
  let progs = Lazy.force corpus_programs in
  let novelty_by_name = Hashtbl.create 8 in
  let note name n =
    Hashtbl.replace novelty_by_name name (n + Option.value ~default:0 (Hashtbl.find_opt novelty_by_name name))
  in
  let xen = List.filter XV.compatible progs in
  let acc = ref Coverage.empty in
  List.iter
    (fun r -> note r.Campaign.r_use_case r.Campaign.r_cov_novelty)
    (Campaign.run_matrix ~workers:1 ~coverage:acc (List.map XV.use_case xen)
       ~versions:[ Version.V4_6 ]
       ~modes:[ Campaign.Real_exploit; Campaign.Injection ]);
  let kvm = List.filter KV.compatible progs in
  let kacc = ref Coverage.empty in
  List.iter
    (fun r -> note r.KC.r_use_case r.KC.r_cov_novelty)
    (KC.run_matrix ~workers:1 ~coverage:kacc (List.map KV.use_case kvm)
       ~versions:[ Ii_backends.Backend_kvm.Stock ]
       ~modes:[ Campaign.Real_exploit; Campaign.Injection ]);
  check_int "all eight scenarios ran" 8 (Hashtbl.length novelty_by_name);
  Hashtbl.iter
    (fun name n ->
      check_bool (Printf.sprintf "%s contributes novelty on first run" name) true (n > 0))
    novelty_by_name

let () =
  Alcotest.run "coverage"
    [
      ( "axes",
        [
          Alcotest.test_case "five axes populate" `Quick test_axes;
          Alcotest.test_case "scn edge count buckets" `Quick test_scn_buckets;
          Alcotest.test_case "slot helpers" `Quick test_slot_helpers;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "merge/diff/novelty" `Quick test_algebra;
          Alcotest.test_case "renderers round-trip" `Quick test_renderers_roundtrip;
          Alcotest.test_case "hash and layout pinned" `Quick test_hash_pinned;
          Alcotest.test_case "publish to metrics" `Quick test_publish;
          Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_escaping;
        ] );
      ("properties", qsuite
        [
          prop_merge_commutative;
          prop_merge_idempotent;
          prop_merge_associative;
          prop_diff_merge_roundtrip;
          prop_novelty_zero_on_repeat;
          prop_novelty_monotone;
          prop_hex_roundtrip;
          prop_json_map_total;
          prop_json_map_roundtrip;
        ]);
      ( "campaign determinism",
        [
          Alcotest.test_case "workers 1 = workers 3" `Quick test_matrix_workers_invariant;
          Alcotest.test_case "pooled = fresh (4 domains, load)" `Quick
            test_matrix_pooled_invariant;
          Alcotest.test_case "detached rows unchanged" `Quick test_matrix_detached_rows;
          Alcotest.test_case "scheduler workers + streamed" `Quick
            test_scheduler_coverage_invariant;
          Alcotest.test_case "random trial violations credit their domain" `Quick
            test_random_trial_violation_domain;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "xen replay reproduces map" `Quick test_replay_reproduces_map_xen;
          Alcotest.test_case "scenario replay refeeds scn edges" `Quick
            test_replay_reproduces_map_scenario;
          Alcotest.test_case "kvm replay reproduces map" `Quick test_replay_reproduces_map_kvm;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "every scenario novel on first run" `Quick
            test_corpus_first_run_novelty;
        ] );
    ]
