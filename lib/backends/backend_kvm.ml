(* The KVM substrate: the hardware-assisted "hypervisor B" of §IX-A,
   promoted to a full {!Substrate.S} backend. The injection port is an
   ioctl on the host ({!Kvm.arbitrary_access}) rather than a hypercall
   from a guest, so boundary crossings are recorded as [Backend_op]
   trace events; everything downstream (campaign, record/replay, VMI)
   is the same functor-generated code that drives Xen. *)

let name = "kvm"
let description = "KVM-style hardware-assisted host (EPT isolation, per-VM VMCS)"

type config = Stock

let configs = [ Stock ]
let rq1_config = Stock
let config_to_string Stock = "stock"
let config_of_string = function "stock" -> Some Stock | _ -> None
let config_heading = "KVM"
let port_heading = "Ioctls"

type t = {
  kvm : Kvm.t;
  tr : Trace.t;
  victim : Kvm.vm;
  bystander : Kvm.vm;
  extras : Kvm.vm list;  (* guest domains beyond the standard pair *)
  mutable injector_on : bool;
  mutable load : Load_mix.t;
  ck : Kvm.checkpoint;
  ck_trace : Trace.mark;  (* counters and virtual clock at the reset checkpoint *)
  scans : int64 Scan_memo.t;
      (* baseline scan cache for [snapshot], one per host (fresh on
         create and on every fork): keys 2*id hold a VM's VMCS hash,
         2*id+1 its EPT exposure *)
}

(* The one constructor of a host record, for the boot and the fork
   alike (mirrors [Testbed.assemble]). *)
let assemble kvm ck tr ck_trace ~load ~victim ~bystander ~extras =
  { kvm; tr; victim; bystander; extras; injector_on = false; load; ck; ck_trace;
    scans = Scan_memo.create () }

(* Mirrors Testbed.create: a host plus its standard guest population,
   with the reset checkpoint captured at the end of boot. *)
let create ?(domains = 2) ?(load = Load_mix.none) Stock =
  if domains < 2 then invalid_arg "Backend_kvm.create: need at least victim + bystander";
  let kvm = Kvm.boot ~frames:2048 in
  let victim = Kvm.create_vm kvm ~name:"guest03" ~pages:64 in
  let bystander = Kvm.create_vm kvm ~name:"guest01" ~pages:64 in
  let extras =
    List.init (domains - 2) (fun i -> Kvm.create_vm kvm ~name:(Testbed.extra_name i) ~pages:64)
  in
  let ck = Kvm.checkpoint kvm in
  let tr = Trace.create () in
  assemble kvm ck tr (Trace.mark tr) ~load ~victim ~bystander ~extras

(* The warm pool, mirroring {!Testbed.create_pooled}: one frozen
   template per domain count, forked copy-on-write per worker. The load
   mix is runtime-only, installed on the fork. *)
let pool_lock = Mutex.create ()
let pool : (int, t) Hashtbl.t = Hashtbl.create 4

let template domains =
  Mutex.lock pool_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
  match Hashtbl.find_opt pool domains with
  | Some tmpl -> tmpl
  | None ->
      let tmpl = create ~domains Stock in
      Phys_mem.freeze (Kvm.mem tmpl.kvm);
      Hashtbl.replace pool domains tmpl;
      tmpl

let create_pooled ?(domains = 2) ?(load = Load_mix.none) Stock =
  let tmpl = template domains in
  let kvm, ck = Kvm.fork tmpl.kvm tmpl.ck in
  let vm_of old = List.find (fun vm -> vm.Kvm.vm_id = old.Kvm.vm_id) (Kvm.vms kvm) in
  assemble kvm ck (Trace.fork tmpl.tr tmpl.ck_trace) tmpl.ck_trace ~load
    ~victim:(vm_of tmpl.victim) ~bystander:(vm_of tmpl.bystander)
    ~extras:(List.map vm_of tmpl.extras)

let reset t =
  ignore (Kvm.restore t.kvm t.ck);
  t.injector_on <- false;
  Trace.rewind t.tr t.ck_trace

let trace t = t.tr
let mem t = Kvm.mem t.kvm
let install_injector t = t.injector_on <- true

(* Backend_op discriminants: this backend's replayable boundary ops. *)
let op_ioctl = 0 (* arg1 = addr, arg2 = action code, data = payload/buffer *)
let op_vm_entry = 1 (* arg1 = vm id *)
let op_fault = 2 (* arg1 = vm id, arg2 = vector *)
let op_host_write = 3 (* arg1 = addr, data = payload (compromised device model) *)

let bracketed t ev f =
  if Trace.recording t.tr && Trace.top_level t.tr then Trace.emit t.tr ev;
  Trace.within t.tr f ()

(* The injection port: the arbitrary_access ioctl. Mirrors the Xen
   hypercall's trace protocol — one boundary record, then the internal
   Injector_access record and the counters, then the access itself. *)
let ioctl t ~addr action data =
  if not t.injector_on then Error Errno.ENOSYS
  else
    bracketed t
      (Trace.Backend_op
         { op = op_ioctl; arg1 = addr; arg2 = Access.code action; data = Bytes.to_string data })
      (fun () ->
        Trace.charge t.tr Vclock.Kvm_ioctl;
        Trace.note_injector t.tr;
        if Trace.recording t.tr then
          Trace.emit t.tr
            (Trace.Injector_access
               { action = Int64.to_int (Access.code action); addr; len = Bytes.length data });
        (* same origin scheme as the Xen hypercall port: the access
           ordinal names the injecting action in attribution output *)
        let n = Trace.injector_accesses t.tr in
        let r =
          Phys_mem.with_origin (Kvm.mem t.kvm) (Provenance.Injector_action n) (fun () ->
              Kvm.arbitrary_access t.kvm ~addr action ~data)
        in
        Trace.note_hypercall t.tr ~number:Injector.hypercall_number ~failed:(Result.is_error r);
        (match Trace.coverage t.tr with
        | Some cov ->
            Coverage.note_port cov ~nr:Injector.hypercall_number
              ~outcome:(match r with Ok _ -> 0 | Error e -> Errno.to_int e)
        | None -> ());
        r)

let inject_write t ~addr action data =
  match ioctl t ~addr action data with Ok _ -> Ok () | Error e -> Error e

let inject_read t ~addr action ~len =
  match ioctl t ~addr action (Bytes.create len) with
  | Ok (Some b) -> Ok b
  | Ok None -> Error Errno.EINVAL
  | Error e -> Error e

(* The "real exploit" port: a compromised device model writing host
   memory directly — no injector involved, like a userspace process
   with /dev/mem on a broken host. *)
let host_write t ~addr data =
  bracketed t
    (Trace.Backend_op { op = op_host_write; arg1 = addr; arg2 = 0L; data = Bytes.to_string data })
    (fun () ->
      Trace.charge t.tr Vclock.Guest_mem_op;
      match
        Phys_mem.with_origin (Kvm.mem t.kvm) (Provenance.Backend_write 0) (fun () ->
            Kvm.arbitrary_access t.kvm ~addr Access.Arbitrary_write_physical ~data)
      with
      | Ok _ -> Ok ()
      | Error e -> Error e)

let note_transition t was r =
  if Result.is_error r && was = Kvm.Vm_running then Trace.note_fault t.tr ~double:false

let vm_entry t vm =
  bracketed t
    (Trace.Backend_op
       { op = op_vm_entry; arg1 = Int64.of_int vm.Kvm.vm_id; arg2 = 0L; data = "" })
    (fun () ->
      Trace.charge t.tr Vclock.Vm_entry;
      let was = vm.Kvm.state in
      let r = Kvm.vm_entry t.kvm vm in
      note_transition t was r;
      r)

let deliver_fault t vm ~vector =
  bracketed t
    (Trace.Backend_op
       {
         op = op_fault;
         arg1 = Int64.of_int vm.Kvm.vm_id;
         arg2 = Int64.of_int vector;
         data = "";
       })
    (fun () ->
      Trace.charge t.tr Vclock.Fault_delivery;
      let was = vm.Kvm.state in
      let r = Kvm.deliver_guest_fault t.kvm vm ~vector in
      note_transition t was r;
      r)

let round t =
  List.iter
    (fun vm ->
      Trace.charge t.tr Vclock.Vm_entry;
      let was = vm.Kvm.state in
      note_transition t was (Kvm.vm_entry t.kvm vm))
    (Kvm.vms t.kvm);
  (* background load: extra VM entries per guest per round, charged on
     the vclock; runs inside the round's trace scope so a replayed
     [Sched_round] regenerates it deterministically *)
  let n = Load_mix.ops_per_tick t.load in
  if n > 0 then
    List.iter
      (fun vm ->
        for _ = 1 to n do
          Trace.charge t.tr Vclock.Vm_entry;
          let was = vm.Kvm.state in
          note_transition t was (Kvm.vm_entry t.kvm vm)
        done)
      (Kvm.vms t.kvm)

let tick_all t =
  if Trace.recording t.tr && Trace.top_level t.tr then Trace.emit t.tr Trace.Sched_round;
  Trace.within t.tr round t

(* --- erroneous-state auditing ------------------------------------------ *)

type state_spec =
  | Vmcs_entry_tampered of int  (** vm id: the host-critical structure *)
  | Guest_idt_gate_corrupted of int * int  (** vm id, vector: guest state *)

let find_vm t id = List.find_opt (fun vm -> vm.Kvm.vm_id = id) (Kvm.vms t.kvm)

let audit t spec =
  match spec with
  | Vmcs_entry_tampered id -> (
      match find_vm t id with
      | None -> { Erroneous_state.holds = false; evidence = [ Printf.sprintf "vm%d not found" id ] }
      | Some vm ->
          let f = Phys_mem.frame_ro (Kvm.mem t.kvm) vm.Kvm.vmcs_mfn in
          let handler = Frame.get_u64 f 8 in
          let holds = Frame.get_u64 f 0 <> Kvm.vmcs_magic || handler <> Kvm.vmcs_entry_handler in
          {
            Erroneous_state.holds;
            evidence =
              (if holds then
                 [ Printf.sprintf "vm%d VMCS entry handler reads %016Lx" id handler ]
               else []);
          })
  | Guest_idt_gate_corrupted (id, vector) -> (
      match find_vm t id with
      | None -> { Erroneous_state.holds = false; evidence = [ Printf.sprintf "vm%d not found" id ] }
      | Some vm -> (
          match Kvm.guest_idt_gate t.kvm vm ~vector with
          | None ->
              { Erroneous_state.holds = false; evidence = [ "guest IDT page unmapped" ] }
          | Some handler ->
              let holds = handler <> Kvm.guest_handler vector in
              {
                Erroneous_state.holds;
                evidence =
                  (if holds then
                     [ Printf.sprintf "vm%d gate %d handler reads %016Lx" id vector handler ]
                   else []);
              }))

(* --- security-violation monitoring ------------------------------------- *)

type snapshot = {
  s_vms : (int * string * bool * string option) list;
      (* (id, name, alive, crash reason) *)
  s_vmcs : (int * int64) list;  (* per-vm VMCS hash *)
  s_ept_exposure : (int * int) list;  (* per-vm EPT exposure count *)
  s_free_frames : int;
}

(* The VMCS hash and the EPT exposure are reused from the scan cache
   while the frames they read are clean: the VMCS frame, and the EPT
   table and leaf frames (leaf owners only change through
   [Phys_mem.set_owner]/[alloc]/[free], which mark the frame dirty). *)
let snapshot t =
  let vms = Kvm.vms t.kvm in
  let mem = Kvm.mem t.kvm in
  let cached = Scan_memo.usable t.scans mem in
  let vmcs vm =
    if not cached then Kvm.vmcs_hash t.kvm vm
    else
      Scan_memo.get t.scans mem ~key:(2 * vm.Kvm.vm_id) ~root:vm.Kvm.vmcs_mfn (fun deps ->
          Scan_memo.note_read deps vm.Kvm.vmcs_mfn;
          Kvm.vmcs_hash t.kvm vm)
  in
  let ept vm =
    if not cached then Kvm.ept_exposure t.kvm vm
    else
      Int64.to_int
        (Scan_memo.get t.scans mem ~key:((2 * vm.Kvm.vm_id) + 1) ~root:vm.Kvm.ept_root
           (fun deps ->
             Int64.of_int (Kvm.ept_exposure ~note:(Scan_memo.note_read deps) t.kvm vm)))
  in
  {
    s_vms =
      List.map
        (fun vm ->
          ( vm.Kvm.vm_id,
            vm.Kvm.vm_name,
            vm.Kvm.state = Kvm.Vm_running,
            Kvm.crash_reason vm ))
        vms;
    s_vmcs = List.map (fun vm -> (vm.Kvm.vm_id, vmcs vm)) vms;
    s_ept_exposure = List.map (fun vm -> (vm.Kvm.vm_id, ept vm)) vms;
    s_free_frames = Phys_mem.free_frames (Kvm.mem t.kvm);
  }

(* Each violation tagged with the VM (domain) it was observed in, so
   the per-domain rows of multi-domain campaigns work on this backend
   too; [violations] projects the tags away. *)
let violations_tagged ~before ~after =
  let name_of id =
    match List.find_opt (fun (id', _, _, _) -> id' = id) after.s_vms with
    | Some (_, n, _, _) -> n
    | None -> Printf.sprintf "vm%d" id
  in
  let crashes =
    List.filter_map
      (fun (id, vm_name, alive, reason) ->
        let was_alive =
          List.exists (fun (id', _, alive', _) -> id' = id && alive') before.s_vms
        in
        if was_alive && not alive then
          Some
            ( vm_name,
              Monitor.Guest_crash
                (Printf.sprintf "vm%d (%s): %s" id vm_name
                   (Option.value reason ~default:"killed")) )
        else None)
      after.s_vms
  in
  let vmcs_tampered =
    List.filter_map
      (fun (id, h) ->
        match List.assoc_opt id before.s_vmcs with
        | Some h0 when h0 <> h ->
            Some
              ( name_of id,
                Monitor.Integrity_violation
                  (Printf.sprintf "vm%d VMCS hash changed (host-critical structure)" id) )
        | _ -> None)
      after.s_vmcs
  in
  let ept_exposed =
    List.filter_map
      (fun (id, n) ->
        match List.assoc_opt id before.s_ept_exposure with
        | Some n0 when n > n0 ->
            Some
              ( name_of id,
                Monitor.Integrity_violation
                  (Printf.sprintf "vm%d EPT exposes %d host/foreign frames (was %d)" id n n0) )
        | _ -> None)
      after.s_ept_exposure
  in
  crashes @ vmcs_tampered @ ept_exposed

let violations ~before ~after = List.map snd (violations_tagged ~before ~after)

(* KVM kills the offending VM at the failed entry; the host never dies
   in this model — the cross-backend blast-radius contrast with Xen. *)
let host_alive _ = true

(* --- out-of-band monitoring (VMI) -------------------------------------- *)

let vmcs_integrity_detector () =
  let baseline = ref [] in
  {
    Vmi.Detector.name = "kvm-vmcs-integrity";
    arm = (fun t -> baseline := List.map (fun vm -> (vm.Kvm.vm_id, Kvm.vmcs_hash t.kvm vm)) (Kvm.vms t.kvm));
    scan =
      (fun t ->
        let vms = Kvm.vms t.kvm in
        let findings =
          List.filter_map
            (fun vm ->
              match List.assoc_opt vm.Kvm.vm_id !baseline with
              | Some h0 when Kvm.vmcs_hash t.kvm vm <> h0 ->
                  Some (Printf.sprintf "vm%d: VMCS hash diverged from baseline" vm.Kvm.vm_id)
              | _ -> None)
            vms
        in
        { Vmi.Detector.findings; frames_read = List.length vms });
  }

let ept_exposure_detector () =
  let baseline = ref [] in
  {
    Vmi.Detector.name = "kvm-ept-exposure";
    arm =
      (fun t ->
        baseline := List.map (fun vm -> (vm.Kvm.vm_id, Kvm.ept_exposure t.kvm vm)) (Kvm.vms t.kvm));
    scan =
      (fun t ->
        let frames = ref 0 in
        let findings =
          List.filter_map
            (fun vm ->
              let g = Kvm.ept_graph t.kvm vm in
              frames := !frames + g.Kvm.eg_frames_read;
              let n = Kvm.ept_exposure t.kvm vm in
              match List.assoc_opt vm.Kvm.vm_id !baseline with
              | Some n0 when n > n0 ->
                  Some
                    (Printf.sprintf "vm%d: EPT maps %d host/foreign frames (baseline %d)"
                       vm.Kvm.vm_id n n0)
              | _ -> None)
            (Kvm.vms t.kvm)
        in
        { Vmi.Detector.findings; frames_read = !frames });
  }

let vm_liveness_detector () =
  let baseline = ref [] in
  {
    Vmi.Detector.name = "kvm-vm-liveness";
    arm =
      (fun t ->
        baseline :=
          List.filter_map
            (fun vm -> if vm.Kvm.state = Kvm.Vm_running then Some vm.Kvm.vm_id else None)
            (Kvm.vms t.kvm));
    scan =
      (fun t ->
        let findings =
          List.filter_map
            (fun vm ->
              if List.mem vm.Kvm.vm_id !baseline && vm.Kvm.state <> Kvm.Vm_running then
                Some
                  (Printf.sprintf "vm%d (%s) died: %s" vm.Kvm.vm_id vm.Kvm.vm_name
                     (Option.value (Kvm.crash_reason vm) ~default:"unknown"))
              else None)
            (Kvm.vms t.kvm)
        in
        { Vmi.Detector.findings; frames_read = 0 });
  }

let detectors () = [ vmcs_integrity_detector (); ept_exposure_detector (); vm_liveness_detector () ]

(* --- trace replay ------------------------------------------------------- *)

let apply_event t (ev : Trace.event) =
  match ev with
  | Trace.Backend_op { op; arg1; arg2; data } ->
      if op = op_ioctl then (
        match Access.of_code arg2 with
        | None -> false
        | Some action ->
            ignore (ioctl t ~addr:arg1 action (Bytes.of_string data));
            true)
      else if op = op_vm_entry then (
        match find_vm t (Int64.to_int arg1) with
        | None -> false
        | Some vm ->
            ignore (vm_entry t vm);
            true)
      else if op = op_fault then (
        match find_vm t (Int64.to_int arg1) with
        | None -> false
        | Some vm ->
            ignore (deliver_fault t vm ~vector:(Int64.to_int arg2));
            true)
      else if op = op_host_write then begin
        ignore (host_write t ~addr:arg1 (Bytes.of_string data));
        true
      end
      else false
  | Trace.Sched_round ->
      tick_all t;
      true
  | _ -> false
