(* Tests for the trace subsystem: ring wraparound must keep the newest
   records, a deterministic trial must record a byte-identical trace
   every time, replaying a recording's boundary events must reproduce
   its final monitor snapshot, and enabling the ring must never change
   a campaign result. *)

open Ii_trace
open Ii_xen
open Ii_core
module All = Ii_exploits.All_exploits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_i64 = Alcotest.(check int64)

let uc name =
  match All.find name with Some uc -> uc | None -> Alcotest.fail ("no use case " ^ name)

let kvm_uc name =
  match All.find_kvm name with Some uc -> uc | None -> Alcotest.fail ("no KVM use case " ^ name)

(* --- ring mechanics ------------------------------------------------------ *)

let test_roundtrip () =
  let tr = Trace.create () in
  Trace.enable tr;
  let evs =
    [
      Trace.Hypercall { domid = 2; number = 1; digest = 42L; payload = "abc" };
      Trace.Guest_mem
        { domid = 1; op = Trace.Op_write_u64; va = 0xffff880000002000L; len = 8; data = "01234567" };
      Trace.Fault { vector = 14; escalation = 1 };
      Trace.Page_type { mfn = 77; from_type = 0; to_type = 2 };
      Trace.Net_cmd { to_host = "xen2"; port = 1234; conn_id = 0; cmd = "whoami" };
      Trace.Xenstore_write
        { caller = -1; injected = true; path = "/local/domain/2/memory/target"; value = "64" };
      Trace.Monitor_verdict { violations = 3; classes = 0xe };
      Trace.Panic { reason = "DOUBLE FAULT" };
    ]
  in
  List.iter (Trace.emit tr) evs;
  let recs = Trace.records tr in
  check_int "count" (List.length evs) (List.length recs);
  List.iteri
    (fun i { Trace.seq; event; _ } ->
      check_int "seq" i seq;
      check_bool "event" true (event = List.nth evs i))
    recs;
  (* the framed image decodes to the same records *)
  check_bool "records_of_string" true (Trace.records_of_string (Trace.to_bytes tr) = recs)

let test_wraparound_keeps_newest () =
  let tr = Trace.create () in
  Trace.enable ~capacity_bytes:256 tr;
  for i = 0 to 99 do
    Trace.emit tr (Trace.Tlb_invlpg { va = Int64.of_int i })
  done;
  check_bool "evicted some" true (Trace.dropped tr > 0);
  let recs = Trace.records tr in
  check_bool "kept some" true (recs <> []);
  (* survivors are exactly the newest suffix, in order *)
  let expected_first = 100 - List.length recs in
  List.iteri
    (fun i { Trace.seq; event; _ } ->
      check_int "suffix seq" (expected_first + i) seq;
      check_bool "suffix payload" true (event = Trace.Tlb_invlpg { va = Int64.of_int seq }))
    recs

let test_disabled_ring_records_nothing () =
  let tr = Trace.create () in
  Trace.emit tr Trace.Tlb_flush_all;
  check_int "no records" 0 (List.length (Trace.records tr));
  (* counters tick regardless of the ring *)
  Trace.note_fault tr ~double:false;
  check_int "counter" 1 (Trace.telemetry tr).Trace.tm_faults

let test_depth_suppression () =
  let tr = Trace.create () in
  Trace.enable tr;
  check_bool "top level" true (Trace.top_level tr);
  Trace.within tr (fun () -> check_bool "nested" false (Trace.top_level tr)) ();
  check_bool "top again" true (Trace.top_level tr)

(* A boundary whose work raises still closes its bracket: a hypercall
   handler that raises must not leave the tracer nested, or every later
   boundary record (across resets too) would be suppressed. *)
let test_raising_boundary_closes_bracket () =
  let module TB = Ii_guest.Testbed in
  let tb = TB.create Version.V4_8 in
  let hv = tb.TB.hv and k = tb.TB.attacker in
  let tr = hv.Hv.trace in
  Hv.register_hypercall hv ~number:60 ~name:"raises" (fun _ _ _ -> failwith "handler");
  (match Ii_guest.Kernel.hypercall k (Hypercall.Raw { number = 60; args = [||] }) with
  | _ -> Alcotest.fail "the handler returned"
  | exception Failure _ -> ());
  check_bool "top level after the raise" true (Trace.top_level tr);
  TB.reset tb;
  check_bool "top level after a reset" true (Trace.top_level tr);
  Trace.enable tr;
  ignore (Ii_guest.Kernel.write_u64 k (Ii_guest.Kernel.start_info_vaddr k) 7L);
  TB.tick_all tb;
  check_bool "the write and the round are recorded" true
    (List.length (Trace.records tr) >= 2)

let test_detection_latency () =
  let inj = Trace.Injector_access { action = 1; addr = 0L; len = 8 } in
  let verdict n = Trace.Monitor_verdict { violations = n; classes = 1 } in
  let stamped evs = List.mapi (fun seq (vts, event) -> { Trace.seq; vts; event }) evs in
  check_bool "missing injector" true
    (Trace.detection_latency_ns (stamped [ (0L, verdict 1) ]) = None);
  check_bool "empty verdict ignored" true
    (Trace.detection_latency_ns (stamped [ (5L, inj); (9L, verdict 0) ]) = None);
  check_bool "verdict before the injection ignored" true
    (Trace.detection_latency_ns (stamped [ (0L, verdict 1); (5L, inj) ]) = None);
  check_bool "latency is the vts distance" true
    (Trace.detection_latency_ns
       (stamped
          [
            (100L, inj); (150L, Trace.Tlb_flush_all); (150L, Trace.Sched_round); (420L, verdict 2);
          ])
    = Some 320L);
  (* the clock can stand still across records: seq orders them *)
  check_bool "zero-cost verdict after the injection" true
    (Trace.detection_latency_ns (stamped [ (100L, inj); (100L, verdict 1) ]) = Some 0L)

(* --- determinism --------------------------------------------------------- *)

let test_record_deterministic () =
  let uc = uc "XSA-148-priv" in
  let a = Trace_driver.record uc Campaign.Injection Version.V4_6 in
  let b = Trace_driver.record uc Campaign.Injection Version.V4_6 in
  check_string "byte-identical traces" a.Trace_driver.rec_bytes b.Trace_driver.rec_bytes;
  check_int "nothing dropped" 0 a.Trace_driver.rec_dropped

(* --- replay -------------------------------------------------------------- *)

let test_replay_equivalent () =
  List.iter
    (fun uc ->
      List.iter
        (fun mode ->
          let r = Trace_driver.record uc mode Version.V4_6 in
          let o = Trace_driver.replay r in
          check_bool
            (Printf.sprintf "replay %s/%s reaches the recorded final state"
               uc.Campaign.uc_name (Campaign.mode_to_string mode))
            true o.Trace_driver.rp_equal;
          check_bool "applied something" true (o.Trace_driver.rp_applied > 0))
        [ Campaign.Real_exploit; Campaign.Injection ])
    All.use_cases

(* The vDSO scan replayed: thousands of guest PTE writes, invlpgs and
   window reads through the traced accessors, in both modes. The
   recording is byte-identical run to run, and its replay reaches the
   recorded final state with the recorded (vts, event) stream. *)
let test_replay_vdso_scan () =
  List.iter
    (fun mode ->
      let what = "XSA-212-priv/" ^ Campaign.mode_to_string mode in
      let r = Trace_driver.record (uc "XSA-212-priv") mode Version.V4_6 in
      let again = Trace_driver.record (uc "XSA-212-priv") mode Version.V4_6 in
      check_string (what ^ ": byte-identical recordings") r.Trace_driver.rec_bytes
        again.Trace_driver.rec_bytes;
      check_int (what ^ ": nothing dropped") 0 r.Trace_driver.rec_dropped;
      let o = Trace_driver.replay r in
      check_bool (what ^ ": final state reproduced") true o.Trace_driver.rp_equal;
      check_bool (what ^ ": vts stream reproduced") true o.Trace_driver.rp_vts_equal;
      check_bool (what ^ ": the scan was replayed") true (o.Trace_driver.rp_applied > 2048))
    [ Campaign.Real_exploit; Campaign.Injection ]

(* --- Kernel.read_into = Kernel.read_bytes --------------------------------- *)

(* [read_into] is [read_bytes] into a caller's buffer: over reads within
   a page, across a page boundary, into unmapped memory, across into
   unmapped memory, into a layout-denied region and of zero bytes, both
   return the same bytes or fault, leave the same vclock and record the
   same boundary events (the trace bytes compare whole). [read_into]
   writes nothing outside its range. *)
let test_read_into_equals_read_bytes () =
  let kva = Domain.kernel_vaddr_of_pfn in
  let reads =
    [
      (kva 5, 45);
      (Int64.add (kva 5) 4090L, 20);
      (kva 5000, 8);
      (Int64.add (kva 95) 4000L, 200);
      (Layout.linear_pt_base, 45);
      (kva 6, 0);
    ]
  in
  let run version read =
    let tb = Ii_guest.Testbed.create version in
    let k = tb.Ii_guest.Testbed.attacker and tr = tb.Ii_guest.Testbed.hv.Hv.trace in
    Trace.enable tr;
    let results = List.map (fun (va, len) -> read k va len) reads in
    Trace.disable tr;
    (results, Trace.vts tr, Trace.to_bytes tr)
  in
  let read_bytes k va len = Result.map Bytes.to_string (Ii_guest.Kernel.read_bytes k va len) in
  let read_into k va len =
    let buf = Bytes.make (len + 6) '?' in
    let r = Ii_guest.Kernel.read_into k va buf 3 len in
    check_bool "nothing written outside the range" true
      (Bytes.sub_string buf 0 3 = "???" && Bytes.sub_string buf (len + 3) 3 = "???");
    Result.map (fun () -> Bytes.sub_string buf 3 len) r
  in
  List.iter
    (fun version ->
      let v = Version.to_string version in
      let b_results, b_vts, b_trace = run version read_bytes in
      let i_results, i_vts, i_trace = run version read_into in
      check_bool (v ^ ": same bytes or fault") true (b_results = i_results);
      check_bool (v ^ ": some read faults") true (List.exists Result.is_error b_results);
      check_i64 (v ^ ": same vclock") b_vts i_vts;
      check_string (v ^ ": same boundary events") b_trace i_trace)
    [ Version.V4_6; Version.V4_13 ]

(* --- tracing must not perturb results ------------------------------------ *)

let strip_row (r : Campaign.result_row) =
  (r.Campaign.r_use_case, r.Campaign.r_version, r.Campaign.r_mode, r.Campaign.r_state,
   r.Campaign.r_audits, r.Campaign.r_violations, r.Campaign.r_transcript,
   r.Campaign.r_rc, r.Campaign.r_telemetry)

let test_tracing_does_not_change_results () =
  List.iter
    (fun uc ->
      let plain = Campaign.run uc Campaign.Injection Version.V4_6 in
      let traced = (Trace_driver.record uc Campaign.Injection Version.V4_6).Trace_driver.rec_row in
      check_bool
        (Printf.sprintf "%s: traced row = plain row" uc.Campaign.uc_name)
        true
        (strip_row plain = strip_row traced))
    All.use_cases

(* --- telemetry ----------------------------------------------------------- *)

let test_telemetry_counts_injector () =
  let r = Campaign.run (uc "XSA-148-priv") Campaign.Injection Version.V4_6 in
  let t = r.Campaign.r_telemetry in
  check_bool "at least one hypercall" true (Trace.total_hypercalls t >= 1);
  check_bool "injector access counted" true (t.Trace.tm_injector_accesses >= 1);
  check_bool "injector hypercall keyed by number" true
    (List.mem_assoc Injector.hypercall_number t.Trace.tm_hypercalls)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_telemetry_table_renders () =
  let r = Campaign.run (uc "XSA-212-crash") Campaign.Injection Version.V4_6 in
  let s = Campaign.telemetry_table [ r ] in
  check_bool "mentions the use case" true (contains ~sub:"XSA-212-crash" s);
  check_bool "has the hypercall column" true (contains ~sub:"Hypercalls" s)

(* With extra domains live the table grows one row per affected domain:
   the Dom/Viol columns name each casualty, and every domain the trial
   touched must appear in the rendering. *)
let test_telemetry_table_per_domain_rows () =
  let r =
    Campaign.run ~domains:4 ~load:Load_mix.default (uc "XSA-212-priv") Campaign.Injection
      Version.V4_6
  in
  let s = Campaign.telemetry_table [ r ] in
  check_bool "has the Dom column" true (contains ~sub:"Dom" s);
  check_bool "has the Viol column" true (contains ~sub:"Viol" s);
  check_bool "at least one affected domain" true (r.Campaign.r_domains <> []);
  List.iter
    (fun (d, _) -> check_bool (d ^ " rendered") true (contains ~sub:d s))
    r.Campaign.r_domains;
  (* the background mix issues hypercalls of its own: a loaded 4-domain
     trial makes more than the unloaded single-domain one *)
  let u = uc "XSA-148-priv" in
  let hypercalls r = Trace.total_hypercalls r.Campaign.r_telemetry in
  let unloaded = Campaign.run u Campaign.Injection Version.V4_6 in
  let loaded = Campaign.run ~domains:4 ~load:Load_mix.default u Campaign.Injection Version.V4_6 in
  check_bool "load adds hypercalls" true (hypercalls loaded > hypercalls unloaded)

(* --- rollback --------------------------------------------------------------- *)

(* Bump every counter, so a field [Trace.rewind] skips shows in the
   telemetry comparison whatever the trial itself touched. *)
let bump_every_counter tr =
  Trace.note_hypercall tr ~number:1 ~failed:true;
  Trace.note_fault tr ~double:true;
  Trace.note_flush tr;
  Trace.note_invlpg tr;
  Trace.note_page_type tr;
  Trace.note_grant tr;
  Trace.note_evtchn tr;
  Trace.note_injector tr;
  Trace.note_vmi_scan tr ~findings:1 ~frames:1

(* A backend together with its own boot function. *)
module Rollback (B : sig
  include Substrate.S

  val create : ?domains:int -> ?load:Load_mix.t -> config -> t
end) =
struct
  module C = Campaign.Make (B)

  (* A trial plus [reset] leaves the counters and the clock where a
     reset of the fresh boot left them (on Xen the reset's own TLB flush
     counts, so that is one flush past the boot); the ring keeps what it
     recorded. *)
  let reset uc =
    let tb = B.create B.rq1_config in
    let tr = B.trace tb in
    B.reset tb;
    let boot_tm = Trace.telemetry tr and boot_vts = Trace.vts tr in
    Trace.enable tr;
    ignore (C.run ~tb uc Campaign.Injection B.rq1_config);
    bump_every_counter tr;
    let recs = Trace.records tr in
    check_bool (B.name ^ ": the trial moved the clock") true (Trace.vts tr <> boot_vts);
    B.reset tb;
    check_bool (B.name ^ ": reset rewinds every counter") true (Trace.telemetry tr = boot_tm);
    check_i64 (B.name ^ ": reset rewinds the clock") boot_vts (Trace.vts tr);
    check_bool (B.name ^ ": the ring survives the reset") true
      (recs <> [] && List.filteri (fun i _ -> i < List.length recs) (Trace.records tr) = recs)

  (* A pooled fork's tracer starts where a fresh boot's does. *)
  let fork () =
    let fresh = B.trace (B.create B.rq1_config) in
    let pooled = B.trace (B.create_pooled B.rq1_config) in
    check_bool (B.name ^ ": fork telemetry") true (Trace.telemetry pooled = Trace.telemetry fresh);
    check_i64 (B.name ^ ": fork vts") (Trace.vts fresh) (Trace.vts pooled);
    check_bool (B.name ^ ": fork cost model") true
      (Vclock.model (Trace.vclock pooled) = Vclock.model (Trace.vclock fresh))
end

module Xen_rollback = Rollback (Substrate_xen)
module Kvm_rollback = Rollback (Ii_backends.Backend_kvm)

let test_reset_rewinds () =
  Xen_rollback.reset (uc "XSA-148-priv");
  Kvm_rollback.reset (kvm_uc "KVM-VMCS")

let test_pooled_fork_starts_at_boot () =
  Xen_rollback.fork ();
  Kvm_rollback.fork ()

(* [Trace.fork] takes counters and time from the mark, and the cost
   model from the template's live clock. *)
let test_fork_from_mark () =
  let tmpl = Trace.create () in
  bump_every_counter tmpl;
  Trace.charge tmpl Vclock.Hypercall_dispatch;
  let m = Trace.mark tmpl in
  let at_mark = Trace.telemetry tmpl and vts_at_mark = Trace.vts tmpl in
  let model = Result.get_ok (Vclock.Cost_model.of_string "hypercall_dispatch = 7") in
  Vclock.set_model (Trace.vclock tmpl) model;
  bump_every_counter tmpl;
  let f = Trace.fork tmpl m in
  check_bool "fork counters are the mark's" true (Trace.telemetry f = at_mark);
  check_i64 "fork vts is the mark's" vts_at_mark (Trace.vts f);
  check_bool "fork cost model is the template's" true (Vclock.model (Trace.vclock f) = model);
  check_bool "fork ring is off" false (Trace.recording f)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "wraparound keeps newest" `Quick test_wraparound_keeps_newest;
          Alcotest.test_case "disabled ring records nothing" `Quick
            test_disabled_ring_records_nothing;
          Alcotest.test_case "depth suppression" `Quick test_depth_suppression;
          Alcotest.test_case "a raising boundary closes its bracket" `Quick
            test_raising_boundary_closes_bracket;
          Alcotest.test_case "detection latency" `Quick test_detection_latency;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same trial, same bytes" `Quick test_record_deterministic ] );
      ( "replay",
        [
          Alcotest.test_case "replay = record, all use cases" `Quick test_replay_equivalent;
          Alcotest.test_case "vDSO scan replays byte-identically" `Quick test_replay_vdso_scan;
          Alcotest.test_case "read_into = read_bytes" `Quick test_read_into_equals_read_bytes;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "tracing does not change results" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "injector counted" `Quick test_telemetry_counts_injector;
          Alcotest.test_case "table renders" `Quick test_telemetry_table_renders;
          Alcotest.test_case "per-domain rows" `Quick test_telemetry_table_per_domain_rows;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "reset rewinds counters and clock" `Quick test_reset_rewinds;
          Alcotest.test_case "pooled fork starts at boot" `Quick test_pooled_fork_starts_at_boot;
          Alcotest.test_case "fork from a mark" `Quick test_fork_from_mark;
        ] );
    ]
