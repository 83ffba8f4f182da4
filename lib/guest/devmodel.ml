(* The testbed-resident device model: an Fdc instance serving one guest
   domain, wired into the trace/vclock/provenance stack. See
   devmodel.mli for the contract. *)

type t = {
  fdc : Fdc.t;
  hv : Hv.t;
  served : int;
  mutable corrupt_origin : int option;
  mutable radiated : bool;
}

let op_guest_io = 100
let op_inject = 101

(* the injector-surface action code for Injector_access records; the
   Access codes 0-3 are machine-memory actions, 4 is the device-model
   process-memory surface *)
let dm_action_code = 4

let backdoor_command = "echo \"dm:$(id)@$(hostname)\" > /tmp/dm_payload_log"

let create hv ~served =
  let v = hv.Hv.version in
  {
    fdc =
      Fdc.create
        {
          Fdc.venom_vulnerable = not (Version.venom_fixed v);
          handler_validation = Version.dm_handler_validation v;
        };
    hv;
    served;
    corrupt_origin = None;
    radiated = false;
  }

let fdc t = t.fdc
let served t = t.served
let corrupted t = not (Fdc.handler_intact t.fdc)
let radiated t = t.radiated

let reset t =
  Fdc.reset t.fdc;
  t.corrupt_origin <- None;
  t.radiated <- false

(* Record the first corruption's origin: injector ordinal [n] when the
   corrupting write came through the gated injection surface, 0 when it
   came through the guest-facing (VENOM) path. *)
let note_corruption t origin =
  if corrupted t && t.corrupt_origin = None then t.corrupt_origin <- Some origin

let guest_io t ~domid data =
  let tr = t.hv.Hv.trace in
  if Trace.recording tr && Trace.top_level tr then
    Trace.emit tr
      (Trace.Backend_op
         { op = op_guest_io; arg1 = Int64.of_int domid; arg2 = 0L;
           data = Bytes.to_string data });
  Trace.within tr
    (fun data ->
      Trace.charge tr Vclock.Dm_io;
      match Fdc.issue t.fdc (Fdc.Fd_write_data data) with
      | Ok () ->
          note_corruption t 0;
          Ok ()
      | Error _ -> Error Errno.EINVAL)
    data

let inject t data =
  let tr = t.hv.Hv.trace in
  if Trace.recording tr && Trace.top_level tr then
    Trace.emit tr
      (Trace.Backend_op
         { op = op_inject; arg1 = Int64.of_int t.served; arg2 = 0L;
           data = Bytes.to_string data });
  Trace.within tr
    (fun data ->
      Trace.charge tr Vclock.Dm_io;
      Trace.note_injector tr;
      if Trace.recording tr then
        Trace.emit tr
          (Trace.Injector_access
             { action = dm_action_code; addr = Int64.of_int Fdc.handler_offset;
               len = Bytes.length data });
      let n = Trace.injector_accesses tr in
      Fdc.inject_overflow t.fdc data;
      note_corruption t n;
      Ok ())
    data

(* One device-model turn, run from the scheduler round: dispatch pending
   FDC work through the handler pointer. A hijacked handler radiates the
   compromise into the served guest exactly once — a backdoor written
   into the guest's vDSO page, labelled with the {!Provenance.
   Device_model} origin so a casualty found in that (bystander) domain
   still attributes back to whoever corrupted the device model. *)
let kick t =
  match Fdc.kick t.fdc with
  | `Dispatched | `Rejected_corrupt_handler -> ()
  | `Hijacked _ ->
      if not t.radiated then begin
        t.radiated <- true;
        match Hv.find_domain t.hv t.served with
        | None -> ()
        | Some dom -> (
            match Domain.mfn_of_pfn dom dom.Domain.vdso_pfn with
            | None -> ()
            | Some mfn ->
                let payload =
                  Kernel.Backdoor.encode (Kernel.Backdoor.Run_as_root backdoor_command)
                in
                let ma =
                  Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int Builder.Vdso.code_off)
                in
                let origin =
                  Provenance.Device_model
                    (match t.corrupt_origin with Some n -> n | None -> 0)
                in
                Phys_mem.with_origin t.hv.Hv.mem origin (fun () ->
                    Phys_mem.write_bytes t.hv.Hv.mem ma payload))
      end
