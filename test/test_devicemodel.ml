(* Tests for the device models: the FDC (VENOM) and the
   paravirtual block-device pair (off-by-one backend study). *)

open Ii_xen
open Ii_guest
open Ii_devicemodel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vulnerable = { Fdc.venom_vulnerable = true; handler_validation = false }
let fixed = { Fdc.venom_vulnerable = false; handler_validation = false }
let hardened = { Fdc.venom_vulnerable = true; handler_validation = true }

let test_fifo_normal_write () =
  let fdc = Fdc.create fixed in
  check_bool "small write ok" true (Fdc.issue fdc (Fdc.Fd_write_data (Bytes.make 64 'x')) = Ok ());
  check_bool "handler intact" true (Fdc.handler_intact fdc);
  check_bool "read id" true (Fdc.issue fdc Fdc.Fd_read_id = Ok ());
  check_bool "reset" true (Fdc.issue fdc Fdc.Fd_reset = Ok ())

let test_fixed_rejects_overflow () =
  let fdc = Fdc.create fixed in
  (match Fdc.issue fdc (Fdc.Fd_write_data (Bytes.make (Fdc.fifo_size + 8) 'x')) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fixed build must reject");
  check_bool "handler intact" true (Fdc.handler_intact fdc)

let test_fixed_rejects_accumulated_overflow () =
  let fdc = Fdc.create fixed in
  check_bool "first ok" true (Fdc.issue fdc (Fdc.Fd_write_data (Bytes.make 500 'x')) = Ok ());
  (match Fdc.issue fdc (Fdc.Fd_write_data (Bytes.make 100 'y')) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accumulated overflow must be rejected");
  check_bool "reset clears" true (Fdc.issue fdc Fdc.Fd_reset = Ok ());
  check_bool "after reset ok" true (Fdc.issue fdc (Fdc.Fd_write_data (Bytes.make 100 'y')) = Ok ())

let test_venom_overflow_corrupts_handler () =
  let fdc = Fdc.create vulnerable in
  let payload = Bytes.make (Fdc.fifo_size + 8) 'A' in
  Bytes.set_int64_le payload Fdc.fifo_size 0xEF11L;
  check_bool "accepted" true (Fdc.issue fdc (Fdc.Fd_write_data payload) = Ok ());
  check_bool "handler corrupted" false (Fdc.handler_intact fdc);
  match Fdc.kick fdc with
  | `Hijacked v -> Alcotest.(check int64) "attacker value" 0xEF11L v
  | `Dispatched | `Rejected_corrupt_handler -> Alcotest.fail "expected hijack"

let test_injection_reproduces_overflow_state () =
  let via_exploit = Fdc.create vulnerable in
  let payload = Bytes.make (Fdc.fifo_size + 8) 'A' in
  Bytes.set_int64_le payload Fdc.fifo_size 0x1234L;
  ignore (Fdc.issue via_exploit (Fdc.Fd_write_data payload));
  let via_injection = Fdc.create fixed in
  let tail = Bytes.create 8 in
  Bytes.set_int64_le tail 0 0x1234L;
  Fdc.inject_overflow via_injection tail;
  Alcotest.(check int64)
    "same erroneous state" (Fdc.handler_value via_exploit) (Fdc.handler_value via_injection)

let test_handler_validation_shields () =
  let fdc = Fdc.create hardened in
  let tail = Bytes.create 8 in
  Bytes.set_int64_le tail 0 0x1234L;
  Fdc.inject_overflow fdc tail;
  check_bool "state present" false (Fdc.handler_intact fdc);
  match Fdc.kick fdc with
  | `Rejected_corrupt_handler -> ()
  | `Hijacked _ | `Dispatched -> Alcotest.fail "validation must shield"

(* Which release validates the device model's handler, seen through the
   testbed's device model: a handler corrupted through the injection
   surface hijacks the next dispatch and radiates a backdoor into the
   served guest's vDSO on 4.6 and 4.8; 4.13 rejects the corrupt handler
   and leaves the guest as it was. *)
let test_dm_validation_by_release () =
  List.iter
    (fun (v, hijacked) ->
      let name = Version.to_string v in
      let tb = Testbed.create_pooled v in
      let dm = tb.Testbed.dm in
      let vdso () =
        let dom = Kernel.dom tb.Testbed.victim in
        let mfn = Option.get (Domain.mfn_of_pfn dom dom.Domain.vdso_pfn) in
        Phys_mem.read_bytes tb.Testbed.hv.Hv.mem (Addr.maddr_of_mfn mfn) Addr.page_size
      in
      let before = vdso () in
      let tail = Bytes.create 8 in
      Bytes.set_int64_le tail 0 0x1234L;
      check_bool (name ^ ": injected") true (Devmodel.inject dm tail = Ok ());
      check_bool (name ^ ": handler corrupted") true (Devmodel.corrupted dm);
      Devmodel.kick dm;
      check_bool (name ^ ": radiated") hijacked (Devmodel.radiated dm);
      check_bool (name ^ ": served guest's vDSO rewritten") hijacked (vdso () <> before))
    [ (Version.V4_6, true); (Version.V4_8, true); (Version.V4_13, false) ]

let test_reset_restores () =
  let fdc = Fdc.create vulnerable in
  let tail = Bytes.create 8 in
  Bytes.set_int64_le tail 0 0x1L;
  Fdc.inject_overflow fdc tail;
  Fdc.reset fdc;
  check_bool "intact after reset" true (Fdc.handler_intact fdc);
  check_bool "dispatches" true (Fdc.kick fdc = `Dispatched)

(* The four builds (vulnerable or fixed, with or without handler
   validation): the over-long FD_WRITE corrupts the handler iff the
   build is vulnerable, the injected overflow corrupts it on every
   build, and dispatch is hijacked iff the handler is corrupt and
   unvalidated. *)
let test_build_matrix () =
  let handler = 0x0000_6666_c0de_c0deL in
  List.iter
    (fun (venom_vulnerable, handler_validation) ->
      let cfg = { Fdc.venom_vulnerable; handler_validation } in
      let label = Printf.sprintf "venom=%b validation=%b" venom_vulnerable handler_validation in
      let exploited = Fdc.create cfg in
      let payload = Bytes.make (Fdc.fifo_size + 8) 'A' in
      Bytes.set_int64_le payload Fdc.fifo_size handler;
      ignore (Fdc.issue exploited (Fdc.Fd_write_data payload));
      let injected = Fdc.create cfg in
      let tail = Bytes.create 8 in
      Bytes.set_int64_le tail 0 handler;
      Fdc.inject_overflow injected tail;
      List.iter
        (fun (mode, fdc, state) ->
          check_bool (label ^ " " ^ mode ^ " state") state (not (Fdc.handler_intact fdc));
          check_bool (label ^ " " ^ mode ^ " violation")
            (state && not handler_validation)
            (match Fdc.kick fdc with `Hijacked _ -> true | _ -> false))
        [ ("exploit", exploited, venom_vulnerable); ("injection", injected, true) ])
    [ (true, false); (true, true); (false, false); (false, true) ]

(* --- Blkdev --------------------------------------------------------------- *)

let blk_env ~off_by_one =
  let tb = Testbed.create Version.V4_13 in
  Ii_core.Injector.install tb.Testbed.hv;
  let dom0 = Kernel.dom tb.Testbed.dom0 in
  let be = Blkdev.create_backend tb.Testbed.hv ~backend_dom:dom0 ~off_by_one in
  let fe =
    match Blkdev.connect tb.Testbed.attacker ~backend_domid:dom0.Domain.id ~ring_pfn:45 ~data_pfn:46 with
    | Ok fe -> fe
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  (tb, be, fe)

let roundtrip be fe ~op ~sector =
  match Blkdev.submit fe ~op ~sector with
  | Error e -> Alcotest.fail (Errno.to_string e)
  | Ok id ->
      ignore (Blkdev.backend_poll be fe);
      Blkdev.response_status fe id

let test_blk_read_write () =
  let _, be, fe = blk_env ~off_by_one:false in
  (* read a sector: the disk pattern lands in the data page *)
  check_bool "read ok" true (roundtrip be fe ~op:Blkdev.Ring.op_read ~sector:7 = Some 0L);
  (match Blkdev.read_data fe ~off:0 ~len:8 with
  | Ok b -> Alcotest.(check string) "pattern" "SECTOR07" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "data read");
  (* write a sector and read it back *)
  check_bool "stage data" true (Result.is_ok (Blkdev.write_data fe ~off:0 (Bytes.of_string "mydata!!")));
  check_bool "write ok" true (roundtrip be fe ~op:Blkdev.Ring.op_write ~sector:3 = Some 0L);
  check_bool "readback ok" true (roundtrip be fe ~op:Blkdev.Ring.op_read ~sector:3 = Some 0L);
  match Blkdev.read_data fe ~off:0 ~len:8 with
  | Ok b -> Alcotest.(check string) "written" "mydata!!" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "data read"

let test_blk_bounds () =
  let _, be, fe = blk_env ~off_by_one:false in
  check_bool "oob refused" true
    (roundtrip be fe ~op:Blkdev.Ring.op_read ~sector:Blkdev.sectors
    = Some (Int64.of_int (-22)));
  check_bool "negative refused" true
    (roundtrip be fe ~op:Blkdev.Ring.op_read ~sector:(-1) = Some (Int64.of_int (-22)));
  check_bool "bad op refused" true (roundtrip be fe ~op:9L ~sector:1 = Some (Int64.of_int (-38)))

let test_blk_off_by_one_discloses () =
  let _, be, fe = blk_env ~off_by_one:true in
  check_bool "oob accepted" true
    (roundtrip be fe ~op:Blkdev.Ring.op_read ~sector:Blkdev.sectors = Some 0L);
  match Blkdev.read_data fe ~off:0 ~len:14 with
  | Ok b -> Alcotest.(check string) "secret leaked" "BACKEND-SECRET" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "data read"

let test_blk_grants_are_real () =
  (* the backend goes through the grant machinery: without the wire
     entries (fresh frontend domain, no grants) mapping fails and the
     backend completes nothing *)
  let tb = Testbed.create Version.V4_13 in
  let dom0 = Kernel.dom tb.Testbed.dom0 in
  let be = Blkdev.create_backend tb.Testbed.hv ~backend_dom:dom0 ~off_by_one:false in
  let fe =
    match Blkdev.connect tb.Testbed.attacker ~backend_domid:dom0.Domain.id ~ring_pfn:45 ~data_pfn:46 with
    | Ok fe -> fe
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  (* revoke the ring grant by zeroing the wire entry *)
  let grant_va = Domain.kernel_vaddr_of_pfn 44 in
  ignore (Kernel.write_u64 tb.Testbed.attacker (Int64.add grant_va (Int64.of_int (8 * 20))) 0L);
  ignore (Blkdev.submit fe ~op:Blkdev.Ring.op_read ~sector:1);
  check_int "nothing processed" 0 (Blkdev.backend_poll be fe)

let test_blk_study_matrix () =
  let outcomes = Blk_study.matrix () in
  check_int "four runs" 4 (List.length outcomes);
  List.iter
    (fun o ->
      match (o.Blk_study.o_mode, o.Blk_study.o_off_by_one) with
      | Blk_study.Exploit, true ->
          check_bool "exploit works on buggy backend" true o.Blk_study.o_disclosure;
          check_bool "status ok" true (o.Blk_study.o_status = Some 0L)
      | Blk_study.Exploit, false ->
          check_bool "exploit fails on fixed backend" false o.Blk_study.o_disclosure;
          check_bool "einval" true (o.Blk_study.o_status = Some (Int64.of_int (-22)))
      | Blk_study.Injection, _ ->
          check_bool "injection always lands" true o.Blk_study.o_state)
    outcomes;
  check_bool "im functionality" true
    (Blk_study.im.Ii_core.Intrusion_model.functionality
    = Ii_core.Abusive_functionality.Read_unauthorized_memory)

let () =
  Alcotest.run "devicemodel"
    [
      ( "fdc",
        [
          Alcotest.test_case "normal write" `Quick test_fifo_normal_write;
          Alcotest.test_case "fixed rejects overflow" `Quick test_fixed_rejects_overflow;
          Alcotest.test_case "fixed rejects accumulated overflow" `Quick
            test_fixed_rejects_accumulated_overflow;
          Alcotest.test_case "venom corrupts handler" `Quick test_venom_overflow_corrupts_handler;
          Alcotest.test_case "injection reproduces state" `Quick
            test_injection_reproduces_overflow_state;
          Alcotest.test_case "validation shields" `Quick test_handler_validation_shields;
          Alcotest.test_case "reset restores" `Quick test_reset_restores;
          Alcotest.test_case "build matrix" `Quick test_build_matrix;
        ] );
      ( "devmodel",
        [ Alcotest.test_case "handler validation by release" `Quick test_dm_validation_by_release ]
      );
      ( "blkdev",
        [
          Alcotest.test_case "read/write roundtrip" `Quick test_blk_read_write;
          Alcotest.test_case "bounds" `Quick test_blk_bounds;
          Alcotest.test_case "off-by-one discloses" `Quick test_blk_off_by_one_discloses;
          Alcotest.test_case "grants are real" `Quick test_blk_grants_are_real;
          Alcotest.test_case "study matrix" `Quick test_blk_study_matrix;
        ] );
    ]
