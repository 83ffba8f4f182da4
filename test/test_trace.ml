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

(* --- the wire, byte for byte ---------------------------------------------- *)

(* One sample per record kind (all seven [mem_op] flavours, and a
   [Hypercall] without a payload, which is not a boundary), each with
   its framed image at seq 0 and vts 0, its rendering and its boundary
   flag; and one call per [Hypercall] payload constructor with its
   encoding. An encoder and decoder that agree with each other but not
   with these bytes fail here. *)

let event = Alcotest.testable Trace.pp_event ( = )

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let event_samples =
  [
    ( Trace.Hypercall { domid = 1; number = 3; digest = 0x0102030405060708L; payload = "ab" },
      "230000000000000000000000000000000101000000030000000807060504030201020000006162",
      "hypercall d1 nr=3 digest=0102030405060708 payload=2B",
      true );
    ( Trace.Hypercall { domid = 2; number = 12; digest = 0xcbf29ce484222325L; payload = "" },
      "2100000000000000000000000000000001020000000c00000025232284e49cf2cb00000000",
      "hypercall d2 nr=12 digest=cbf29ce484222325 (nested)",
      false );
    ( Trace.Guest_mem { domid = 2; op = Trace.Op_read_u64; va = 0xffff880000001000L; len = 8; data = "" },
      "22000000000000000000000000000000020200000000001000000088ffff0800000000000000",
      "guest_mem d2 read_u64 va=ffff880000001000 len=8",
      true );
    ( Trace.Guest_mem { domid = 2; op = Trace.Op_write_u64; va = 0xffff880000001008L; len = 8; data = "\x01\x02\x03\x04\x05\x06\x07\x08" },
      "2a000000000000000000000000000000020200000001081000000088ffff08000000080000000102030405060708",
      "guest_mem d2 write_u64 va=ffff880000001008 len=8",
      true );
    ( Trace.Guest_mem { domid = 3; op = Trace.Op_read_bytes; va = 0x2000L; len = 5; data = "" },
      "2200000000000000000000000000000002030000000200200000000000000500000000000000",
      "guest_mem d3 read_bytes va=0000000000002000 len=5",
      true );
    ( Trace.Guest_mem { domid = 3; op = Trace.Op_write_bytes; va = 0x2010L; len = 3; data = "xyz" },
      "250000000000000000000000000000000203000000031020000000000000030000000300000078797a",
      "guest_mem d3 write_bytes va=0000000000002010 len=3",
      true );
    ( Trace.Guest_mem { domid = 4; op = Trace.Op_user_read_u64; va = 0x400000L; len = 8; data = "" },
      "2200000000000000000000000000000002040000000400004000000000000800000000000000",
      "guest_mem d4 user_read_u64 va=0000000000400000 len=8",
      true );
    ( Trace.Guest_mem { domid = 4; op = Trace.Op_user_write_u64; va = 0x400008L; len = 8; data = "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8" },
      "2a00000000000000000000000000000002040000000508004000000000000800000008000000fffefdfcfbfaf9f8",
      "guest_mem d4 user_write_u64 va=0000000000400008 len=8",
      true );
    ( Trace.Guest_mem { domid = 5; op = Trace.Op_probe_u64; va = 0xffff800000000000L; len = 8; data = "" },
      "22000000000000000000000000000000020500000006000000000080ffff0800000000000000",
      "guest_mem d5 probe_u64 va=ffff800000000000 len=8",
      true );
    ( Trace.Guest_invlpg { domid = 3; va = 0x7000L },
      "1900000000000000000000000000000003030000000070000000000000",
      "guest_invlpg d3 va=0000000000007000",
      true );
    ( Trace.Kernel_tick { domid = 4 },
      "110000000000000000000000000000000404000000",
      "kernel_tick d4",
      true );
    ( Trace.Sched_round,
      "0d00000000000000000000000000000005",
      "sched_round",
      true );
    ( Trace.Net_listen { host = "xen1"; port = 22 },
      "19000000000000000000000000000000060400000078656e3116000000",
      "net_listen xen1:22",
      true );
    ( Trace.Net_cmd { to_host = "xen2"; port = 1234; conn_id = 5; cmd = "id" },
      "23000000000000000000000000000000070400000078656e32d204000005000000020000006964",
      "net_cmd xen2:1234#5 \"id\"",
      true );
    ( Trace.Xenstore_write { caller = -1; injected = true; path = "/a"; value = "64" },
      "1e00000000000000000000000000000008ffffffff01020000002f61020000003634",
      "xenstore_write d-1 (injected) /a=\"64\"",
      true );
    ( Trace.Hypercall_ret { domid = 1; number = 12; rc = -14L; failed = true },
      "1e00000000000000000000000000000010010000000c000000f2ffffffffffffff01",
      "hypercall_ret d1 nr=12 rc=-14 (failed)",
      false );
    ( Trace.Fault { vector = 14; escalation = 2 },
      "12000000000000000000000000000000110e00000002",
      "fault vector=14 triple_fault",
      false );
    ( Trace.Tlb_flush_all,
      "0d00000000000000000000000000000012",
      "tlb_flush_all",
      false );
    ( Trace.Tlb_invlpg { va = 0x1234L },
      "15000000000000000000000000000000133412000000000000",
      "tlb_invlpg va=0000000000001234",
      false );
    ( Trace.Page_type { mfn = 77; from_type = 1; to_type = 4 },
      "13000000000000000000000000000000144d0000000104",
      "page_type mfn=77 1->4",
      false );
    ( Trace.Grant_op { domid = 6; op = 4 },
      "12000000000000000000000000000000150600000004",
      "grant_op d6 op=4",
      false );
    ( Trace.Evtchn_op { domid = 7; op = 3 },
      "12000000000000000000000000000000160700000003",
      "evtchn_op d7 op=3",
      false );
    ( Trace.Injector_access { action = 2; addr = 0xdeadbeefL; len = 8 },
      "1a0000000000000000000000000000001702efbeadde0000000008000000",
      "injector_access action=2 addr=00000000deadbeef len=8",
      false );
    ( Trace.Console { len = 11; digest = 0x55L },
      "19000000000000000000000000000000180b0000005500000000000000",
      "console len=11 digest=0000000000000055",
      false );
    ( Trace.Monitor_verdict { violations = 3; classes = 0xe },
      "1500000000000000000000000000000019030000000e000000",
      "monitor_verdict violations=3 classes=0xe",
      false );
    ( Trace.Panic { reason = "DOUBLE FAULT" },
      "1d0000000000000000000000000000001a0c000000444f55424c45204641554c54",
      "panic \"DOUBLE FAULT\"",
      false );
    ( Trace.Vmi_scan { detector = "idt"; findings = 1; frames = 9 },
      "1c0000000000000000000000000000001b030000006964740100000009000000",
      "vmi_scan idt findings=1 frames=9",
      false );
    ( Trace.Backend_op { op = 2; arg1 = 0x10L; arg2 = -1L; data = "\x01\x02" },
      "270000000000000000000000000000001c020000001000000000000000ffffffffffffffff020000000102",
      "backend_op op=2 arg1=0000000000000010 arg2=ffffffffffffffff data=2B",
      true );
    ( Trace.Provenance_edge { consumer = 3; mfn = 40; off = 8; len = 16; labels = [ 5; 7 ] },
      "1d0000000000000000000000000000001d03280000000800000010000000020507",
      "provenance_edge consumer=3 mfn=40 off=8 len=16 labels=[5,7]",
      false );
    ( Trace.Scn_edge { section = 1; prev = 0xffffff; pc = 6 },
      "160000000000000000000000000000001e01ffffff0006000000",
      "scn_edge section=1 16777215->6",
      true );
  ]

let call_samples =
  [
    ( Hypercall.Mmu_update [ (0x1008L, 0x2067L); (0x1010L, 0L) ],
      "00020000000810000000000000672000000000000010100000000000000000000000000000" );
    ( Hypercall.Update_va_mapping { va = 0xffff880000003000L; value = 0x5063L },
      "02003000000088ffff6350000000000000" );
    ( Hypercall.Memory_exchange { Memory_exchange.in_pfns = [ 7; 9 ]; out_extent_start = 0xffff880000004000L },
      "03020000000700000009000000004000000088ffff" );
    (Hypercall.Decrease_reservation [ 5; 6 ], "04020000000500000006000000");
    (Hypercall.Grant_table_op (Hypercall.Gnttab_setup_table { nr_frames = 2 }), "050002000000");
    (Hypercall.Grant_table_op (Hypercall.Gnttab_set_version Grant_table.V1), "050101");
    (Hypercall.Grant_table_op (Hypercall.Gnttab_set_version Grant_table.V2), "050102");
    ( Hypercall.Grant_table_op (Hypercall.Gnttab_grant_access { gref = 3; grantee = 2; pfn = 40; readonly = true }),
      "050203000000020000002800000001" );
    (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref = 3 }), "050303000000");
    ( Hypercall.Grant_table_op (Hypercall.Gnttab_map { granter = 1; gref = 3 }),
      "05040100000003000000" );
    ( Hypercall.Grant_table_op (Hypercall.Gnttab_unmap { granter = 1; handle = 9 }),
      "05050100000009000000" );
    ( Hypercall.Event_channel_op (Hypercall.Evtchn_alloc_unbound { allowed_remote = 2 }),
      "060002000000" );
    ( Hypercall.Event_channel_op (Hypercall.Evtchn_bind_interdomain { remote_dom = 2; remote_port = 5 }),
      "06010200000005000000" );
    (Hypercall.Event_channel_op (Hypercall.Evtchn_bind_virq { virq = 3 }), "060203000000");
    (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port = 4 }), "060304000000");
    (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port = 6 }), "060406000000");
    (Hypercall.Console_io "hi", "07020000006869");
    ( Hypercall.Raw { number = 60; args = [| 1L; -2L |] },
      "083c000000020000000100000000000000feffffffffffffff" );
  ]

let framed ev =
  let tr = Trace.create () in
  Trace.enable tr;
  Trace.emit tr ev;
  Trace.to_bytes tr

let test_wire_events () =
  List.iter
    (fun (ev, want_hex, want_pp, boundary) ->
      let img = framed ev in
      check_string (want_pp ^ ": frame") want_hex (hex img);
      check_string (want_pp ^ ": pp_event") want_pp (Format.asprintf "%a" Trace.pp_event ev);
      check_bool (want_pp ^ ": is_boundary") boundary (Trace.is_boundary ev);
      Alcotest.(check (list event))
        (want_pp ^ ": decodes back") [ ev ]
        (List.map (fun r -> r.Trace.event) (Trace.records_of_string img)))
    event_samples;
  (* the table names every record code: the code byte follows the
     16-byte frame header *)
  let codes =
    List.sort_uniq compare
      (List.map (fun (ev, _, _, _) -> Char.code (framed ev).[16]) event_samples)
  in
  Alcotest.(check (list int))
    "every record code" (List.init 8 succ @ List.init 15 (fun i -> 16 + i)) codes

(* [u32 len | u32 seq | i64 vts | u8 code | payload] *)
let raw_frame code payload =
  let b = Buffer.create 32 in
  Buffer.add_int32_le b (Int32.of_int (13 + String.length payload));
  Buffer.add_int32_le b 0l;
  Buffer.add_int64_le b 0L;
  Buffer.add_uint8 b code;
  Buffer.add_string b payload;
  Buffer.contents b

let test_wire_errors () =
  Alcotest.check_raises "unknown record code" (Failure "Trace: unknown record code 99") (fun () ->
      ignore (Trace.records_of_string (raw_frame 99 "")));
  Alcotest.check_raises "bad mem_op" (Failure "Trace: bad mem_op") (fun () ->
      ignore (Trace.records_of_string (raw_frame 2 "\002\000\000\000\009")));
  Alcotest.check_raises "truncated" (Failure "Trace: truncated record") (fun () ->
      ignore (Trace.records_of_string (raw_frame 4 "\001")))

let test_wire_calls () =
  List.iter
    (fun (c, want_hex) ->
      let s = Hypercall.encode_call c in
      check_string (want_hex ^ ": encode_call") want_hex (hex s);
      check_bool (want_hex ^ ": decode_call") true (Hypercall.decode_call s = Some c))
    call_samples;
  let ops f = List.filter_map (fun (c, _) -> f c) call_samples in
  Alcotest.(check (list int))
    "grant_op_index" [ 0; 1; 1; 2; 3; 4; 5 ]
    (ops (function Hypercall.Grant_table_op op -> Some (Hypercall.grant_op_index op) | _ -> None));
  Alcotest.(check (list int))
    "evtchn_op_index" [ 0; 1; 2; 3; 4 ]
    (ops (function Hypercall.Event_channel_op op -> Some (Hypercall.evtchn_op_index op) | _ -> None))

(* A payload decodes only when it ends where the value does: one byte
   more, or a tail of text, and it is no call. *)
let test_wire_trailing_bytes () =
  List.iter
    (fun (c, want_hex) ->
      let s = Hypercall.encode_call c in
      List.iter
        (fun tail ->
          check_bool (want_hex ^ " + " ^ String.escaped tail) true
            (Hypercall.decode_call (s ^ tail) = None))
        [ "\000"; "junk" ])
    call_samples;
  check_bool "Console_io \"hi\" ^ \"junk\"" true
    (Hypercall.decode_call (Hypercall.encode_call (Hypercall.Console_io "hi") ^ "junk") = None)

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
      ( "wire",
        [
          Alcotest.test_case "every record kind, byte for byte" `Quick test_wire_events;
          Alcotest.test_case "malformed images" `Quick test_wire_errors;
          Alcotest.test_case "every hypercall payload, byte for byte" `Quick test_wire_calls;
          Alcotest.test_case "bytes past a payload" `Quick test_wire_trailing_bytes;
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
