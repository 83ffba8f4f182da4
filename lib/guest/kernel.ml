type t = {
  hv : Hv.t;
  domain : Domain.t;
  target_path : string;  (* the balloon's xenstore key, read every tick *)
  guest_fs : Fs.t;
  net : Netsim.t;
  mutable klog_rev : string list;
  mutable jiffies : int;
  irq_handlers : (int, unit -> unit) Hashtbl.t;
  mutable irqs_handled : int;
  procs : Process.t;
}

let create hv domain net =
  let guest_fs = Fs.create () in
  if domain.Domain.privileged then
    Fs.write guest_fs ~path:"/root/root_msg" ~uid:0 "Confidential content in root folder!";
  {
    hv;
    domain;
    target_path = Xenstore.domain_path domain.Domain.id "memory/target";
    guest_fs;
    net;
    klog_rev = [];
    jiffies = 0;
    irq_handlers = Hashtbl.create 7;
    irqs_handled = 0;
    procs = Process.create ();
  }

let hv t = t.hv
let dom t = t.domain
let fs t = t.guest_fs
let hostname t = t.domain.Domain.name
let domid t = t.domain.Domain.id
let ip t = Printf.sprintf "10.3.1.%d" (180 + domid t)

(* --- kernel log ------------------------------------------------------ *)

let stamp t =
  t.jiffies <- t.jiffies + 17;
  Printf.sprintf "[  %3d.%04d]" (116 + (t.jiffies / 1000)) (t.jiffies mod 10000)

let printk t msg = t.klog_rev <- Printf.sprintf "%s %s" (stamp t) msg :: t.klog_rev

let printk_tagged t ~tag msg =
  t.klog_rev <- Printf.sprintf "%s %s:\t%s" (stamp t) tag msg :: t.klog_rev

let klog t = List.rev t.klog_rev

(* --- hypercalls ------------------------------------------------------ *)

let hypercall t call = Hypercall.dispatch t.hv t.domain call
let hypercall_rc t call = Hypercall.return_code (hypercall t call)

let raw_hypercall t ~number ?rdi ?rsi ?rdx ?r10 () =
  Abi.dispatch t.hv t.domain ~number ?rdi ?rsi ?rdx ?r10 ()
let sidt t = Cpu.sidt t.hv.Hv.cpu

let start_info_vaddr t = Domain.kernel_vaddr_of_pfn t.domain.Domain.start_info_pfn

let start_info_field t off =
  let mfn =
    match Domain.mfn_of_pfn t.domain t.domain.Domain.start_info_pfn with
    | Some mfn -> mfn
    | None -> failwith "Kernel: start_info page missing"
  in
  Frame.get_u64 (Phys_mem.frame_ro t.hv.Hv.mem mfn) off

let pt_base_mfn t = Int64.to_int (start_info_field t Builder.Start_info.pt_base_off)

let vdso_mfn t =
  match Domain.mfn_of_pfn t.domain t.domain.Domain.vdso_pfn with
  | Some mfn -> mfn
  | None -> failwith "Kernel: vdso page missing"

(* A top-level crossing from a script into the guest: record it as a
   boundary event. Everything the machine does underneath (faults,
   flushes, nested hypercalls) is a consequence replay regenerates. *)
let trace_boundary t event =
  let tr = t.hv.Hv.trace in
  if Trace.recording tr && Trace.top_level tr then Trace.emit tr (event ())

let pt_entry t ~table_mfn ~index =
  match Domain.pfn_of_mfn t.domain table_mfn with
  | None -> None
  | Some pfn -> (
      let va =
        Int64.add (Domain.kernel_vaddr_of_pfn pfn) (Int64.of_int (8 * index))
      in
      (* probe reads hit the TLB like any kernel read, so they are part
         of the replayable input stream (op [Op_probe_u64]) even though
         they never deliver a fault *)
      trace_boundary t (fun () ->
          Trace.Guest_mem
            { domid = t.domain.Domain.id; op = Trace.Op_probe_u64; va; len = 8; data = "" });
      match
        Cpu.read_u64 t.hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:t.domain.Domain.l4_mfn va
      with
      | Ok v -> Some v
      | Error _ -> None)

(* --- faulting memory access ------------------------------------------ *)

(* A guest fault is first delivered through Xen's IDT: if the page-fault
   gate was corrupted, this is where the hypervisor double-faults. When
   Xen survives, the fault is bounced back to the guest kernel, which
   logs it and fails the access. *)
let guest_fault t (fault : Paging.fault) =
  (match Hv.deliver_fault t.hv ~vector:Idt.vector_page_fault ~detail:"guest page fault" with
  | Cpu.Handled _ ->
      printk t
        (Printf.sprintf "BUG: unable to handle kernel paging request at 0x%016Lx"
           fault.Paging.fault_vaddr)
  | Cpu.Double_fault_panic _ | Cpu.Triple_fault -> ());
  Error fault

let access t ~ring f =
  match f ~ring ~cr3:t.domain.Domain.l4_mfn with
  | Ok v -> Ok v
  | Error fault -> guest_fault t fault

(* guest stores carry the writing domain as origin; a hypercall issued
   underneath installs its own (more specific) origin on top *)
let write_access t ~ring f =
  Phys_mem.with_origin t.hv.Hv.mem
    (Provenance.Guest_write t.domain.Domain.id)
    (fun () -> access t ~ring f)

let trace_mem t op va ~len ~data =
  trace_boundary t (fun () ->
      Trace.Guest_mem { domid = t.domain.Domain.id; op; va; len; data })

let read_u64 t va =
  trace_mem t Trace.Op_read_u64 va ~len:8 ~data:"";
  access t ~ring:Cpu.Kernel (fun ~ring ~cr3 -> Cpu.read_u64 t.hv.Hv.cpu ~ring ~cr3 va)

let write_u64 t va v =
  (if Trace.recording t.hv.Hv.trace then
     let data = Bytes.create 8 in
     Bytes.set_int64_le data 0 v;
     trace_mem t Trace.Op_write_u64 va ~len:8 ~data:(Bytes.unsafe_to_string data));
  write_access t ~ring:Cpu.Kernel (fun ~ring ~cr3 -> Cpu.write_u64 t.hv.Hv.cpu ~ring ~cr3 va v)

let read_bytes t va len =
  trace_mem t Trace.Op_read_bytes va ~len ~data:"";
  access t ~ring:Cpu.Kernel (fun ~ring ~cr3 -> Cpu.read_bytes t.hv.Hv.cpu ~ring ~cr3 va len)

let write_bytes t va b =
  if Trace.recording t.hv.Hv.trace then
    trace_mem t Trace.Op_write_bytes va ~len:(Bytes.length b) ~data:(Bytes.to_string b);
  write_access t ~ring:Cpu.Kernel (fun ~ring ~cr3 -> Cpu.write_bytes t.hv.Hv.cpu ~ring ~cr3 va b)

(* MMUEXT_INVLPG_LOCAL: a PV kernel (or an exploit running in it) drops
   the cached translation of a page it just remapped by hand. *)
let invlpg t va =
  trace_boundary t (fun () -> Trace.Guest_invlpg { domid = t.domain.Domain.id; va });
  Cpu.tlb_invlpg t.hv.Hv.cpu ~cr3:t.domain.Domain.l4_mfn va

let user_write_u64 t va v =
  (if Trace.recording t.hv.Hv.trace then
     let data = Bytes.create 8 in
     Bytes.set_int64_le data 0 v;
     trace_mem t Trace.Op_user_write_u64 va ~len:8 ~data:(Bytes.unsafe_to_string data));
  write_access t ~ring:Cpu.User (fun ~ring ~cr3 -> Cpu.write_u64 t.hv.Hv.cpu ~ring ~cr3 va v)

let user_read_u64 t va =
  trace_mem t Trace.Op_user_read_u64 va ~len:8 ~data:"";
  access t ~ring:Cpu.User (fun ~ring ~cr3 -> Cpu.read_u64 t.hv.Hv.cpu ~ring ~cr3 va)

(* --- shell ------------------------------------------------------------ *)

let processes t = t.procs

(* 'ps' is a kernel service, so it is resolved here before the generic
   shell builtins run. *)
let shell t ~uid cmd =
  if String.trim cmd = "ps" then Process.ps_output t.procs
  else Shell.run { Shell.hostname = hostname t; fs = t.guest_fs; uid } cmd

(* --- vDSO backdoor ----------------------------------------------------- *)

module Backdoor = struct
  let magic = "BDK1"

  type payload =
    | Run_as_root of string
    | Reverse_shell of { host : string; port : int }

  let encode payload =
    let kind, body =
      match payload with
      | Run_as_root cmd -> (1, cmd)
      | Reverse_shell { host; port } -> (2, Printf.sprintf "%s:%d" host port)
    in
    let buf = Bytes.make (8 + String.length body) '\000' in
    Bytes.blit_string magic 0 buf 0 4;
    Bytes.set buf 4 (Char.chr kind);
    Bytes.set_uint16_le buf 5 (String.length body);
    Bytes.blit_string body 0 buf 8 (String.length body);
    buf

  let decode blob =
    if Bytes.length blob < 8 || Bytes.sub_string blob 0 4 <> magic then None
    else
      let kind = Char.code (Bytes.get blob 4) in
      let len = Bytes.get_uint16_le blob 5 in
      if Bytes.length blob < 8 + len then None
      else
        let body = Bytes.sub_string blob 8 len in
        match kind with
        | 1 -> Some (Run_as_root body)
        | 2 -> (
            match String.rindex_opt body ':' with
            | Some i -> (
                let host = String.sub body 0 i in
                match int_of_string_opt (String.sub body (i + 1) (String.length body - i - 1)) with
                | Some port -> Some (Reverse_shell { host; port })
                | None -> None)
            | None -> None)
        | _ -> None
end

(* --- event-channel delivery -------------------------------------------- *)

let bind_irq_handler t ~port f = Hashtbl.replace t.irq_handlers port f
let irqs_handled t = t.irqs_handled

(* Drain pending event channels, bounded per tick like a real kernel's
   softirq budget: a storm keeps the backlog (and the host's pending
   count) high instead of looping forever. *)
let irq_budget = 8

let drain_events t =
  let events = t.domain.Domain.events in
  (* most ticks find nothing pending: skip building the port list *)
  if Event_channel.any_pending events then
    List.iteri
      (fun i port ->
        if i < irq_budget && Event_channel.consume events port then begin
          t.irqs_handled <- t.irqs_handled + 1;
          match Hashtbl.find_opt t.irq_handlers port with Some f -> f () | None -> ()
        end)
      (Event_channel.pending_ports events)

(* The balloon driver: honour the toolstack's memory/target by
   releasing the highest releasable data pages. Page-table and special
   pages are never ballooned out. *)
let balloon t =
  match
    Xenstore.read t.hv.Hv.xenstore ~caller:t.domain.Domain.id t.target_path
  with
  | Error _ -> ()
  | Ok target_str -> (
      match int_of_string_opt (String.trim target_str) with
      | None -> ()
      | Some target ->
          let populated = Domain.populated_count t.domain in
          if target < populated then begin
            let releasable pfn =
              pfn > 2
              &&
              match Domain.mfn_of_pfn t.domain pfn with
              | Some mfn -> not (List.mem mfn t.domain.Domain.pt_pages)
              | None -> false
            in
            let candidates =
              List.filter releasable (List.rev (Domain.populated_pfns t.domain))
            in
            let to_release = populated - target in
            List.iteri
              (fun i pfn ->
                if i < to_release then begin
                  ignore
                    (hypercall t
                       (Hypercall.Update_va_mapping
                          { va = Domain.kernel_vaddr_of_pfn pfn; value = Pte.none }));
                  match hypercall t (Hypercall.Decrease_reservation [ pfn ]) with
                  | Ok _ -> printk t (Printf.sprintf "balloon: released pfn %d (target %d)" pfn target)
                  | Error _ -> ()
                end)
              candidates
          end)

let tick t =
  let tr = t.hv.Hv.trace in
  trace_boundary t (fun () -> Trace.Kernel_tick { domid = t.domain.Domain.id });
  Trace.enter tr;
  Fun.protect ~finally:(fun () -> Trace.leave tr) @@ fun () ->
  if not (Hv.is_crashed t.hv) then begin
    drain_events t;
    balloon t;
    (* user processes run and call into the vDSO *)
    Process.on_tick t.procs;
    let vdso = vdso_mfn t in
    (* user code *executes* these bytes: the causal edge a bystander
       compromise is attributed through *)
    Phys_mem.observe t.hv.Hv.mem ~consumer:Provenance.Vdso_exec ~mfn:vdso
      ~off:Builder.Vdso.code_off ~len:Builder.Vdso.code_len;
    let frame = Phys_mem.frame_ro t.hv.Hv.mem vdso in
    let blob = Frame.read_bytes frame Builder.Vdso.code_off Builder.Vdso.code_len in
    match Backdoor.decode blob with
    | None -> ()
    | Some (Backdoor.Run_as_root cmd) -> ignore (shell t ~uid:0 cmd)
    | Some (Backdoor.Reverse_shell { host; port }) ->
        if
          (* keep a single connection per victim/listener pair *)
          not
            (List.exists
               (fun c -> c.Netsim.from_host = hostname t)
               (Netsim.connections_to t.net ~host ~port))
        then
          ignore
            (Netsim.connect t.net ~from_host:(hostname t) ~from_ip:(ip t) ~host ~port ~uid:0
               ~exec:(fun cmd -> shell t ~uid:0 cmd))
  end
