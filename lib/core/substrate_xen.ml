(* The default substrate: the Xen PV testbed. Every type equation below
   is transparent, so a [Substrate_xen.t] is a [Testbed.t], a config a
   [Version.t], a state spec an [Erroneous_state.spec] and a snapshot a
   [Monitor.snapshot]. *)

let name = "xen"
let description = "Xen PV testbed (paper's §IX environment: dom0 + attacker + victim)"

type config = Version.t

let configs = Version.all
let rq1_config = Version.V4_6
let config_to_string = Version.to_string
let config_of_string = Version.of_string
let config_heading = "Xen"
let port_heading = "Hypercalls"

type t = Testbed.t

(* the boot function, outside {!Substrate.S}: a booted testbed for
   set-up code that must pay for a boot *)
let create = Testbed.create
let create_pooled = Testbed.create_pooled

let reset = Testbed.reset
let trace tb = tb.Testbed.hv.Hv.trace
let mem tb = tb.Testbed.hv.Hv.mem
let tick_all = Testbed.tick_all
let install_injector tb = Injector.install tb.Testbed.hv

(* The injection port is the arbitrary_access hypercall, issued from
   the attacker guest's kernel exactly as an injection script would. *)
let inject_write tb ~addr action data = Injector.write tb.Testbed.attacker ~addr ~action data
let inject_read tb ~addr action ~len = Injector.read tb.Testbed.attacker ~addr ~action ~len

(* The device-model surface is process memory, not machine memory, so it
   bypasses the hypercall port — but it is still an injector access, and
   it obeys the same gate: no injection without the port installed. *)
let inject_dm_write tb data =
  if not (Injector.installed tb.Testbed.hv) then Error Errno.ENOSYS
  else Devmodel.inject tb.Testbed.dm data

type state_spec = Erroneous_state.spec

let audit tb spec = Erroneous_state.audit ~dm:(Devmodel.fdc tb.Testbed.dm) tb.Testbed.hv spec

type snapshot = Monitor.snapshot

let snapshot tb = Monitor.snapshot ~cache:tb.Testbed.scan_cache tb
let violations = Monitor.violations
let violations_tagged = Monitor.violations_tagged
let detectors () =
  List.map (Vmi.Detector.contramap (fun tb -> tb.Testbed.hv)) (Vmi.Detector.all ())

let kernel_of tb domid =
  List.find_opt (fun k -> Kernel.domid k = domid) (Testbed.kernels tb)

(* Apply one boundary event. Returns false when the event could not be
   matched to the testbed (a desynchronized replay) — callers count
   those as skipped rather than failing midway, so the final-snapshot
   comparison still reports how far off the run ended up. *)
let apply_event tb (ev : Trace.event) =
  let hv = tb.Testbed.hv in
  match ev with
  | Trace.Hypercall { domid; payload; _ } -> (
      if payload = "" then false
      else
        match (kernel_of tb domid, Hypercall.decode_call payload) with
        | Some k, Some call ->
            ignore (Kernel.hypercall k call);
            true
        | _ -> false)
  | Trace.Guest_mem { domid; op; va; len; data } -> (
      match kernel_of tb domid with
      | None -> false
      | Some k -> (
          match op with
          | Trace.Op_read_u64 ->
              ignore (Kernel.read_u64 k va);
              true
          | Trace.Op_write_u64 when String.length data = 8 ->
              ignore (Kernel.write_u64 k va (String.get_int64_le data 0));
              true
          | Trace.Op_read_bytes ->
              ignore (Kernel.read_bytes k va len);
              true
          | Trace.Op_write_bytes ->
              ignore (Kernel.write_bytes k va (Bytes.of_string data));
              true
          | Trace.Op_user_read_u64 ->
              ignore (Kernel.user_read_u64 k va);
              true
          | Trace.Op_user_write_u64 when String.length data = 8 ->
              ignore (Kernel.user_write_u64 k va (String.get_int64_le data 0));
              true
          | Trace.Op_probe_u64 ->
              (* a page-table probe: translated like a kernel read (and
                 thus populating the TLB, which stale-translation
                 exploits depend on) but never faulting. Bypassing
                 [Kernel] skips its boundary emit, so re-emit the record
                 here — the replayed (vts, event) stream must carry the
                 probe at the same stamp the recording did *)
              let tr = hv.Hv.trace in
              if Trace.recording tr && Trace.top_level tr then Trace.emit tr ev;
              ignore
                (Cpu.read_u64 hv.Hv.cpu ~ring:Cpu.Kernel
                   ~cr3:(Kernel.dom k).Domain.l4_mfn va);
              true
          | Trace.Op_write_u64 | Trace.Op_user_write_u64 -> false))
  | Trace.Guest_invlpg { domid; va } -> (
      match kernel_of tb domid with
      | None -> false
      | Some k ->
          Kernel.invlpg k va;
          true)
  | Trace.Kernel_tick { domid } -> (
      match kernel_of tb domid with
      | None -> false
      | Some k ->
          Kernel.tick k;
          true)
  | Trace.Sched_round ->
      Testbed.tick_all tb;
      true
  | Trace.Net_listen { host; port } ->
      Netsim.listen tb.Testbed.net ~host ~port;
      true
  | Trace.Net_cmd { to_host; port; conn_id; cmd } -> (
      match
        List.find_opt
          (fun c -> c.Netsim.conn_id = conn_id)
          (Netsim.connections_to tb.Testbed.net ~host:to_host ~port)
      with
      | None -> false
      | Some conn ->
          ignore (Netsim.run_command conn cmd);
          true)
  | Trace.Xenstore_write { caller; injected; path; value } ->
      if injected then Xenstore.inject_write hv.Hv.xenstore path value
      else ignore (Xenstore.write hv.Hv.xenstore ~caller path value);
      true
  | Trace.Backend_op { op; arg1; data; _ } when op = Devmodel.op_guest_io ->
      (* a guest-facing device-model command; re-issue it so the FDC
         (and a VENOM overflow) replays in place *)
      ignore (Devmodel.guest_io tb.Testbed.dm ~domid:(Int64.to_int arg1) (Bytes.of_string data));
      true
  | Trace.Backend_op { op; data; _ } when op = Devmodel.op_inject ->
      (* the device-model injection surface: re-running it regenerates
         the Injector_access record (internal, like hypercall-port
         injector accesses) at the same stamp *)
      ignore (Devmodel.inject tb.Testbed.dm (Bytes.of_string data));
      true
  | Trace.Backend_op _ (* other backends' private ops *)
  | Trace.Scn_edge _ (* refed by the replay driver *)
  | Trace.Hypercall_ret _ | Trace.Fault _ | Trace.Tlb_flush_all | Trace.Tlb_invlpg _
  | Trace.Page_type _ | Trace.Grant_op _ | Trace.Evtchn_op _ | Trace.Injector_access _
  | Trace.Console _ | Trace.Monitor_verdict _ | Trace.Panic _ | Trace.Vmi_scan _
  | Trace.Provenance_edge _ ->
      false
