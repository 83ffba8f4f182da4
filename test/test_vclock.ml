(* Virtual-clock tests: cost-model parsing, replay reproducing the
   recorded virtual timestamps byte-for-byte on every use case and both
   backends, checkpoint/reset/fork clock inheritance (pooled = fresh),
   rate-based scan scheduling determinism, and the detached = attached
   neutrality property (detaching the clock must not change a trial's
   behaviour, only freeze its timestamps). *)

open Ii_trace
open Ii_xen
open Ii_vmi
open Ii_core
module All = Ii_exploits.All_exploits
module B = Ii_backends.Backends
module K = Ii_backends.Backend_kvm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_i64 = Alcotest.(check int64)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

let kvm_uc name =
  match All.find_kvm name with Some uc -> uc | None -> Alcotest.fail ("no KVM use case " ^ name)

(* --- the cost model ------------------------------------------------------ *)

let test_cost_model_roundtrip () =
  let d = Vclock.Cost_model.default in
  (match Vclock.Cost_model.of_string (Vclock.Cost_model.to_string d) with
  | Ok m -> check_bool "to_string/of_string roundtrip" true (m = d)
  | Error e -> Alcotest.fail e);
  check_int "fifteen ops priced" 15 (List.length (Vclock.Cost_model.to_assoc d));
  List.iter
    (fun k ->
      check_bool (k ^ " priced") true
        (List.mem_assoc k (Vclock.Cost_model.to_assoc d)))
    [ "grant_map"; "evtchn_send"; "dm_io" ];
  List.iter
    (fun (_, v) -> check_bool "all defaults positive" true (Int64.compare v 0L > 0))
    (Vclock.Cost_model.to_assoc d)

let test_cost_model_parsing () =
  (match Vclock.Cost_model.of_string "# comment\n\ntlb_hit = 5\nhypercall_dispatch=1000\n" with
  | Ok m ->
      check_i64 "override applied" 5L (Vclock.cost m Vclock.Tlb_hit);
      check_i64 "second override" 1000L (Vclock.cost m Vclock.Hypercall_dispatch);
      check_i64 "untouched key keeps default" (Vclock.cost Vclock.Cost_model.default Vclock.Pte_install)
        (Vclock.cost m Vclock.Pte_install)
  | Error e -> Alcotest.fail e);
  (match Vclock.Cost_model.of_string "grant_map = 7\nevtchn_send = 9\ndm_io = 11\n" with
  | Ok m ->
      check_i64 "grant_map override" 7L (Vclock.cost m Vclock.Grant_map);
      check_i64 "evtchn_send override" 9L (Vclock.cost m Vclock.Evtchn_send);
      check_i64 "dm_io override" 11L (Vclock.cost m Vclock.Dm_io)
  | Error e -> Alcotest.fail e);
  check_bool "unknown key rejected" true
    (Result.is_error (Vclock.Cost_model.of_string "frobnicate = 3"));
  check_bool "negative grant_map rejected" true
    (Result.is_error (Vclock.Cost_model.of_string "grant_map = -260"));
  check_bool "negative cost rejected" true
    (Result.is_error (Vclock.Cost_model.of_string "tlb_hit = -1"));
  check_bool "non-integer rejected" true
    (Result.is_error (Vclock.Cost_model.of_string "tlb_hit = fast"));
  check_bool "missing file is an Error, not an exception" true
    (Result.is_error (Vclock.Cost_model.load "/nonexistent/cost.model"))

(* The clock counts in a native int: a per-op cost it cannot hold is
   refused at parse time, and the largest it can hold charges exactly. *)
let test_cost_bound () =
  let max_cost = Int64.of_int max_int in
  check_bool "cost above max_int rejected" true
    (Result.is_error
       (Vclock.Cost_model.of_string (Printf.sprintf "tlb_hit = %Ld" (Int64.succ max_cost))));
  match Vclock.Cost_model.of_string (Printf.sprintf "tlb_hit = %Ld" max_cost) with
  | Error e -> Alcotest.fail e
  | Ok model ->
      let c = Vclock.create ~model () in
      Vclock.charge c Vclock.Tlb_hit;
      check_i64 "max_int cost charged" max_cost (Vclock.now c)

(* Every operation priced at 0 ns: the clock never moves. *)
let zero_model =
  let keys = List.map fst (Vclock.Cost_model.to_assoc Vclock.Cost_model.default) in
  Result.get_ok
    (Vclock.Cost_model.of_string (String.concat "" (List.map (fun k -> k ^ " = 0\n") keys)))

let test_charge_mechanics () =
  let c = Vclock.create () in
  check_i64 "starts at zero" 0L (Vclock.now c);
  Vclock.charge c Vclock.Tlb_hit;
  check_i64 "one hit" (Vclock.cost (Vclock.model c) Vclock.Tlb_hit) (Vclock.now c);
  Vclock.charge_n c Vclock.Page_walk_step 4;
  check_i64 "four walk steps"
    (Int64.add
       (Vclock.cost (Vclock.model c) Vclock.Tlb_hit)
       (Int64.mul 4L (Vclock.cost (Vclock.model c) Vclock.Page_walk_step)))
    (Vclock.now c);
  let frozen = Vclock.now c in
  Vclock.set_model c zero_model;
  Vclock.charge c Vclock.Fault_delivery;
  check_i64 "zero-priced charges are no-ops" frozen (Vclock.now c);
  Vclock.set_model c Vclock.Cost_model.default;
  Vclock.charge c Vclock.Fault_delivery;
  check_bool "re-priced charges land" true (Int64.compare (Vclock.now c) frozen > 0)

(* --- replay reproduces virtual timestamps -------------------------------- *)

let test_xen_replay_vts_identical () =
  List.iter
    (fun uc0 ->
      let r = Trace_driver.record uc0 Campaign.Injection Version.V4_6 in
      let o = Trace_driver.replay r in
      check_bool (uc0.Campaign.uc_name ^ ": final state reproduced") true
        o.Trace_driver.rp_equal;
      check_bool (uc0.Campaign.uc_name ^ ": vts stream reproduced") true
        o.Trace_driver.rp_vts_equal)
    All.use_cases

let test_kvm_replay_vts_identical () =
  List.iter
    (fun kuc ->
      let r = B.Kvm_trace.record kuc Campaign.Injection K.Stock in
      let o = B.Kvm_trace.replay r in
      check_bool (kuc.B.Kvm_campaign.uc_name ^ ": final state reproduced") true
        o.B.Kvm_trace.rp_equal;
      check_bool (kuc.B.Kvm_campaign.uc_name ^ ": vts stream reproduced") true
        o.B.Kvm_trace.rp_vts_equal)
    All.kvm_use_cases

let test_records_carry_vts () =
  let r = Trace_driver.record (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  let recs = Trace_driver.events r in
  check_bool "some records" true (recs <> []);
  (* vts is monotone along the ring (charges only ever add) *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Int64.compare a.Trace.vts b.Trace.vts <= 0 && monotone rest
    | _ -> true
  in
  check_bool "vts monotone" true (monotone recs);
  check_bool "clock advanced during the trial" true
    (List.exists (fun rc -> Int64.compare rc.Trace.vts 0L > 0) recs)

(* --- checkpoint / reset / fork carry the clock --------------------------- *)

let test_reset_restores_clock () =
  let tb = Substrate_xen.create Version.V4_6 in
  let v0 = Trace.vts (Substrate_xen.trace tb) in
  ignore (Campaign.run ~tb (uc "XSA-148-priv") Campaign.Injection Version.V4_6);
  Substrate_xen.reset tb;
  check_i64 "xen reset restores post-boot vts" v0 (Trace.vts (Substrate_xen.trace tb));
  let ktb = K.create K.Stock in
  let kv0 = Trace.vts (K.trace ktb) in
  ignore (B.Kvm_campaign.run ~tb:ktb (kvm_uc "KVM-IDT") Campaign.Injection K.Stock);
  K.reset ktb;
  check_i64 "kvm reset restores post-boot vts" kv0 (Trace.vts (K.trace ktb))

let test_pooled_equals_fresh_with_clock () =
  let fresh = Substrate_xen.create Version.V4_6 in
  let pooled = Substrate_xen.create_pooled Version.V4_6 in
  check_i64 "xen fork inherits post-boot clock" (Trace.vts (Substrate_xen.trace fresh))
    (Trace.vts (Substrate_xen.trace pooled));
  let a = Campaign.run ~tb:fresh (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  let b = Campaign.run ~tb:pooled (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  check_i64 "xen pooled trial vtime identical" a.Campaign.r_vtime_ns b.Campaign.r_vtime_ns;
  check_bool "xen vtime positive" true (Int64.compare a.Campaign.r_vtime_ns 0L > 0);
  let kf = K.create K.Stock in
  let kp = K.create_pooled K.Stock in
  check_i64 "kvm fork inherits post-boot clock" (Trace.vts (K.trace kf)) (Trace.vts (K.trace kp));
  let ka = B.Kvm_campaign.run ~tb:kf (kvm_uc "KVM-VMCS") Campaign.Injection K.Stock in
  let kb = B.Kvm_campaign.run ~tb:kp (kvm_uc "KVM-VMCS") Campaign.Injection K.Stock in
  check_i64 "kvm pooled trial vtime identical" ka.B.Kvm_campaign.r_vtime_ns
    kb.B.Kvm_campaign.r_vtime_ns

let test_sharded_matrix_vtime_identical () =
  (* r_vtime_ns is part of the row, so the existing seq = sharded matrix
     identity also pins virtual time across worker pools *)
  let versions = [ Version.V4_6; Version.V4_8 ] in
  let seq =
    Campaign.run_matrix All.use_cases ~versions ~modes:[ Campaign.Injection ]
  in
  let par =
    Campaign.run_matrix ~workers:2 All.use_cases ~versions
      ~modes:[ Campaign.Injection ]
  in
  check_bool "sharded rows (including vtime) identical" true (seq = par)

(* --- rate-based scan scheduling ------------------------------------------ *)

let test_rate_based_scheduler_fires_on_deadline () =
  let scans = ref 0 in
  let d =
    {
      Vmi.Detector.name = "probe";
      arm = (fun () -> ());
      scan =
        (fun () ->
          incr scans;
          { Vmi.Detector.findings = []; frames_read = 2 });
    }
  in
  let tr = Trace.create () in
  let sched = Vmi.Scheduler.create ~every_ns:100L [ d ] in
  Vmi.Scheduler.arm sched ();
  Vmi.Scheduler.step sched tr ();
  check_int "first step always scans" 1 !scans;
  Vmi.Scheduler.step sched tr ();
  check_int "no virtual time elapsed: no scan" 1 !scans;
  Vclock.set (Trace.vclock tr) 99L;
  Vmi.Scheduler.step sched tr ();
  check_int "before the deadline: no scan" 1 !scans;
  Vclock.set (Trace.vclock tr) 100L;
  Vmi.Scheduler.step sched tr ();
  check_int "deadline reached: scan" 2 !scans;
  Vclock.set (Trace.vclock tr) 350L;
  Vmi.Scheduler.step sched tr ();
  check_int "re-armed from scan time" 3 !scans;
  check_int "scans_run agrees" 3 (Vmi.Scheduler.scans_run sched);
  check_i64 "scan cost accrues on the scheduler"
    (Int64.mul 6L (Vclock.cost Vclock.Cost_model.default Vclock.Vmi_scan_frame))
    (Vmi.Scheduler.scan_cost_ns sched);
  check_i64 "scan cost never touches the machine clock" 350L (Trace.vts tr)

let test_rate_based_trial_deterministic () =
  let run () =
    let t =
      Vmi_driver.run_trial ~every_ns:10_000L (uc "XSA-148-priv") Campaign.Injection
        Version.V4_6
    in
    ( t.Vmi_driver.t_scans,
      t.Vmi_driver.t_first_fire,
      t.Vmi_driver.t_latency_ns,
      t.Vmi_driver.t_scan_cost_ns )
  in
  check_bool "two rate-based trials fire identically" true (run () = run ())

let test_latency_ns_reported () =
  let trials =
    Vmi_driver.coverage All.use_cases Campaign.Injection Version.V4_6
  in
  List.iter
    (fun t ->
      let name = t.Vmi_driver.t_recording.Trace_driver.rec_use_case in
      check_bool (name ^ ": covered") true (Vmi_driver.covered t);
      match Vmi_driver.best_latency_ns t with
      | Some ns -> check_bool (name ^ ": ns latency non-negative") true (Int64.compare ns 0L >= 0)
      | None -> Alcotest.fail (name ^ ": no ns latency despite coverage"))
    trials;
  (* the JSON carries one denomination: virtual ns *)
  let json = Vmi_driver.to_json trials in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "event-count key gone" false (contains json "\"latency\":");
  check_bool "ns key present" true (contains json "\"latency_ns\":")

(* --- neutrality: zero-cost = priced ---------------------------------------- *)

let strip_row (r : Campaign.result_row) =
  ( r.Campaign.r_use_case,
    r.Campaign.r_version,
    r.Campaign.r_mode,
    r.Campaign.r_state,
    r.Campaign.r_audits,
    r.Campaign.r_violations,
    r.Campaign.r_transcript,
    r.Campaign.r_rc,
    r.Campaign.r_telemetry )

let test_zero_cost_clock_does_not_change_results () =
  List.iter
    (fun uc0 ->
      let on = Trace_driver.record uc0 Campaign.Injection Version.V4_6 in
      let off =
        Trace_driver.record
          ~prepare:(fun tb ->
            Vclock.set_model (Trace.vclock tb.Ii_guest.Testbed.hv.Hv.trace) zero_model)
          uc0 Campaign.Injection Version.V4_6
      in
      check_bool (uc0.Campaign.uc_name ^ ": row unchanged modulo vtime") true
        (strip_row on.Trace_driver.rec_row = strip_row off.Trace_driver.rec_row);
      check_bool (uc0.Campaign.uc_name ^ ": zero-cost vtime is zero") true
        (off.Trace_driver.rec_row.Campaign.r_vtime_ns = 0L);
      check_bool (uc0.Campaign.uc_name ^ ": priced vtime positive") true
        (Int64.compare on.Trace_driver.rec_row.Campaign.r_vtime_ns 0L > 0);
      check_bool (uc0.Campaign.uc_name ^ ": final snapshot unchanged") true
        (on.Trace_driver.rec_final = off.Trace_driver.rec_final);
      (* the (seq, event) stream is identical; only the stamps differ *)
      check_string (uc0.Campaign.uc_name ^ ": event stream unchanged")
        (Trace.strip_vts on.Trace_driver.rec_bytes)
        (Trace.strip_vts off.Trace_driver.rec_bytes))
    All.use_cases

let test_tracing_off_vtime_identical () =
  (* charges are unconditional, so a trial consumes the same virtual
     time whether or not the ring records it *)
  let tb = Substrate_xen.create Version.V4_6 in
  let traced =
    Trace_driver.record (uc "XSA-148-priv") Campaign.Injection Version.V4_6
  in
  let untraced = Campaign.run ~tb (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  check_i64 "ring on/off vtime identical"
    traced.Trace_driver.rec_row.Campaign.r_vtime_ns untraced.Campaign.r_vtime_ns

(* [Cost_model.of_string] is total: arbitrary text, and lines built from
   the model file's own tokens (keys, '=', comments, signs, numbers too
   large for the clock), parse or fail with an error — never an
   exception. A model's own rendering reads back to the same model. *)
let keys = List.map fst (Vclock.Cost_model.to_assoc Vclock.Cost_model.default)

let arb_model_text =
  let open QCheck.Gen in
  let token =
    oneof
      [
        oneofl keys;
        oneofl
          [ "="; " "; "\n"; "\t"; "\r"; "#"; "-"; "+"; "0x1f"; "fast"; "99999999999999999999" ];
        map string_of_int nat;
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ string; map (String.concat "") (list_size (int_bound 40) token) ])

let prop_cost_model_total =
  QCheck.Test.make ~name:"Cost_model.of_string never raises" ~count:500 arb_model_text (fun s ->
      match Vclock.Cost_model.of_string s with Ok _ | Error _ -> true | exception _ -> false)

(* a model with every key priced at an arbitrary cost the clock admits *)
let arb_model =
  let open QCheck.Gen in
  let price = map (fun i -> Int64.of_int (i land max_int)) int in
  QCheck.make
    (map
       (fun prices ->
         String.concat ""
           (List.map2 (fun k v -> Printf.sprintf "%s = %Ld\n" k v) keys prices))
       (list_repeat (List.length keys) price))

let prop_cost_model_roundtrip =
  QCheck.Test.make ~name:"Cost_model.of_string reads back to_string" ~count:200 arb_model
    (fun text ->
      match Vclock.Cost_model.of_string text with
      | Error _ -> false
      | Ok m -> (
          match Vclock.Cost_model.of_string (Vclock.Cost_model.to_string m) with
          | Ok m' -> Vclock.Cost_model.to_assoc m' = Vclock.Cost_model.to_assoc m
          | Error _ -> false))

let () =
  Alcotest.run "vclock"
    [
      ( "cost model",
        [
          Alcotest.test_case "default roundtrip" `Quick test_cost_model_roundtrip;
          Alcotest.test_case "config parsing" `Quick test_cost_model_parsing;
          Alcotest.test_case "cost bound" `Quick test_cost_bound;
          Alcotest.test_case "charge mechanics" `Quick test_charge_mechanics;
        ] );
      ( "totality",
        List.map (QCheck_alcotest.to_alcotest ~verbose:false)
          [ prop_cost_model_total; prop_cost_model_roundtrip ] );
      ( "replay",
        [
          Alcotest.test_case "xen vts streams reproduce" `Quick test_xen_replay_vts_identical;
          Alcotest.test_case "kvm vts streams reproduce" `Quick test_kvm_replay_vts_identical;
          Alcotest.test_case "records carry monotone vts" `Quick test_records_carry_vts;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "reset restores the clock" `Quick test_reset_restores_clock;
          Alcotest.test_case "pooled = fresh with clock" `Quick
            test_pooled_equals_fresh_with_clock;
          Alcotest.test_case "sharded matrix vtime identical" `Quick
            test_sharded_matrix_vtime_identical;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "rate-based deadlines" `Quick
            test_rate_based_scheduler_fires_on_deadline;
          Alcotest.test_case "rate-based trials deterministic" `Quick
            test_rate_based_trial_deterministic;
          Alcotest.test_case "ns latency reported" `Quick test_latency_ns_reported;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "zero-cost clock does not change results" `Quick
            test_zero_cost_clock_does_not_change_results;
          Alcotest.test_case "tracing off vtime identical" `Quick
            test_tracing_off_vtime_identical;
        ] );
    ]
