(* A log line is kept as its jiffies stamp and the parts of its text,
   and formatted only when {!klog} reads it: printing costs more than
   most trials do otherwise, and most logs are never read. *)
type line =
  | Msg of int * string
  | Tagged of int * string * string  (* jiffies, tag, message *)
  | Paging_request of int * int64  (* the faulting address *)
  | Balloon_release of int * int * int  (* pfn, target *)

type t = {
  hv : Hv.t;
  domain : Domain.t;
  target_path : string;  (* the balloon's xenstore key *)
  mutable target_gen : int;  (* the store's generation [target] was read at *)
  mutable target : int option;  (* the parsed key; [None] when unreadable *)
  guest_fs : Fs.t;
  mutable fs_boot : int;  (* the filesystem's generation after boot *)
  net : Netsim.t;
  mutable klog_rev : line list;
  mutable jiffies : int;
  irq_handlers : (int, unit -> unit) Hashtbl.t;
  mutable irqs_handled : int;
  procs : Process.t;
}

let boot_fs t =
  if t.domain.Domain.privileged then
    Fs.write t.guest_fs ~path:"/root/root_msg" ~uid:0 "Confidential content in root folder!";
  t.fs_boot <- Fs.generation t.guest_fs

let create hv domain net =
  let t =
    {
      hv;
      domain;
      target_path = Xenstore.domain_path domain.Domain.id "memory/target";
      target_gen = -1;
      target = None;
      guest_fs = Fs.create ();
      fs_boot = 0;
      net;
      klog_rev = [];
      jiffies = 0;
      irq_handlers = Hashtbl.create 7;
      irqs_handled = 0;
      procs = Process.create ();
    }
  in
  boot_fs t;
  t

(* Back to the state [create] leaves, in the same objects. The caller
   restores the domain record and the network. A filesystem nothing
   wrote since boot is kept as it is. *)
let reset t =
  if Fs.generation t.guest_fs <> t.fs_boot then begin
    Fs.reset t.guest_fs;
    boot_fs t
  end;
  t.klog_rev <- [];
  t.jiffies <- 0;
  Hashtbl.reset t.irq_handlers;
  t.irqs_handled <- 0;
  Process.reset t.procs

let hv t = t.hv
let dom t = t.domain
let fs t = t.guest_fs
let hostname t = t.domain.Domain.name
let domid t = t.domain.Domain.id
let ip t = Printf.sprintf "10.3.1.%d" (180 + domid t)

(* --- kernel log ------------------------------------------------------ *)

let stamp t =
  t.jiffies <- t.jiffies + 17;
  t.jiffies

let log t line = t.klog_rev <- line :: t.klog_rev
let printk t msg = log t (Msg (stamp t, msg))
let printk_tagged t ~tag msg = log t (Tagged (stamp t, tag, msg))

let format_line line =
  let at j = Printf.sprintf "[  %3d.%04d]" (116 + (j / 1000)) (j mod 10000) in
  match line with
  | Msg (j, msg) -> Printf.sprintf "%s %s" (at j) msg
  | Tagged (j, tag, msg) -> Printf.sprintf "%s %s:\t%s" (at j) tag msg
  | Paging_request (j, va) ->
      Printf.sprintf "%s BUG: unable to handle kernel paging request at 0x%016Lx" (at j) va
  | Balloon_release (j, pfn, target) ->
      Printf.sprintf "%s balloon: released pfn %d (target %d)" (at j) pfn target

let klog t = List.rev_map format_line t.klog_rev

(* --- hypercalls ------------------------------------------------------ *)

let hypercall t call = Hypercall.dispatch t.hv t.domain call
let hypercall_rc t call = Hypercall.return_code (hypercall t call)

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
   flushes, nested hypercalls) is a consequence replay regenerates.
   Callers build the event only while [recording]. *)
let recording t = Trace.recording t.hv.Hv.trace

let trace_boundary t event =
  let tr = t.hv.Hv.trace in
  if Trace.top_level tr then Trace.emit tr event

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
      if recording t then
        trace_boundary t
          (Trace.Guest_mem
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
  | Cpu.Handled _ -> log t (Paging_request (stamp t, fault.Paging.fault_vaddr))
  | Cpu.Double_fault_panic _ | Cpu.Triple_fault -> ());
  Error fault

let checked t = function Ok _ as r -> r | Error fault -> guest_fault t fault

(* guest stores carry the writing domain as origin; a hypercall issued
   underneath installs its own (more specific) origin on top. Without
   provenance attached there is no origin to carry: callers store
   directly, with no closure. *)
let provenance_attached t = Option.is_some (Phys_mem.provenance t.hv.Hv.mem)

let with_write_origin t store =
  Phys_mem.with_origin t.hv.Hv.mem (Provenance.Guest_write t.domain.Domain.id) store

let trace_mem t op va ~len ~data =
  trace_boundary t (Trace.Guest_mem { domid = t.domain.Domain.id; op; va; len; data })

let cpu t = t.hv.Hv.cpu
let cr3 t = t.domain.Domain.l4_mfn

let u64_data v =
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 v;
  Bytes.unsafe_to_string data

let load_u64 t ~ring ~op va =
  if recording t then trace_mem t op va ~len:8 ~data:"";
  checked t (Cpu.read_u64 (cpu t) ~ring ~cr3:(cr3 t) va)

let store_u64 t ~ring ~op va v =
  if recording t then trace_mem t op va ~len:8 ~data:(u64_data v);
  if provenance_attached t then
    with_write_origin t (fun () -> checked t (Cpu.write_u64 (cpu t) ~ring ~cr3:(cr3 t) va v))
  else checked t (Cpu.write_u64 (cpu t) ~ring ~cr3:(cr3 t) va v)

let read_u64 t va = load_u64 t ~ring:Cpu.Kernel ~op:Trace.Op_read_u64 va
let write_u64 t va v = store_u64 t ~ring:Cpu.Kernel ~op:Trace.Op_write_u64 va v
let user_read_u64 t va = load_u64 t ~ring:Cpu.User ~op:Trace.Op_user_read_u64 va
let user_write_u64 t va v = store_u64 t ~ring:Cpu.User ~op:Trace.Op_user_write_u64 va v

(* [read_bytes] into a caller's buffer: the same boundary event, so a
   replay re-drives it as [read_bytes] at the same cost *)
let read_into t va buf pos len =
  if recording t then trace_mem t Trace.Op_read_bytes va ~len ~data:"";
  checked t (Cpu.read_into (cpu t) ~ring:Cpu.Kernel ~cr3:(cr3 t) va buf pos len)

let read_bytes t va len =
  let buf = Bytes.create len in
  match read_into t va buf 0 len with Ok () -> Ok buf | Error _ as e -> e

let write_bytes t va b =
  if recording t then
    trace_mem t Trace.Op_write_bytes va ~len:(Bytes.length b) ~data:(Bytes.to_string b);
  if provenance_attached t then
    with_write_origin t (fun () ->
        checked t (Cpu.write_bytes (cpu t) ~ring:Cpu.Kernel ~cr3:(cr3 t) va b))
  else checked t (Cpu.write_bytes (cpu t) ~ring:Cpu.Kernel ~cr3:(cr3 t) va b)

(* MMUEXT_INVLPG_LOCAL: a PV kernel (or an exploit running in it) drops
   the cached translation of a page it just remapped by hand. *)
let invlpg t va =
  if recording t then trace_boundary t (Trace.Guest_invlpg { domid = t.domain.Domain.id; va });
  Cpu.tlb_invlpg (cpu t) ~cr3:(cr3 t) va

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
  (* most ticks find nothing pending; a storm's backlog beyond the
     budget stays pending, unread *)
  if Event_channel.any_pending events then
    List.iter
      (fun port ->
        if Event_channel.consume events port then begin
          t.irqs_handled <- t.irqs_handled + 1;
          match Hashtbl.find_opt t.irq_handlers port with Some f -> f () | None -> ()
        end)
      (Event_channel.first_pending events ~limit:irq_budget)

let rec mem_mfn (mfn : Addr.mfn) = function [] -> false | m :: rest -> m = mfn || mem_mfn mfn rest

(* Unmap and hand back one page, logging it if the hypervisor took it. *)
let balloon_out t pfn ~target =
  ignore
    (hypercall t
       (Hypercall.Update_va_mapping { va = Domain.kernel_vaddr_of_pfn pfn; value = Pte.none }));
  match hypercall t (Hypercall.Decrease_reservation [ pfn ]) with
  | Ok _ -> log t (Balloon_release (stamp t, pfn, target))
  | Error _ -> ()

(* The balloon's memory/target, parsed; read again only when the store
   changed since the last read *)
let balloon_target t =
  let store = t.hv.Hv.xenstore in
  if Xenstore.generation store <> t.target_gen then begin
    t.target <-
      int_of_string_opt
        (String.trim (Xenstore.read_or store ~caller:(domid t) t.target_path ~default:""));
    t.target_gen <- Xenstore.generation store
  end;
  t.target

(* The balloon driver: honour the toolstack's memory/target by
   releasing the highest releasable data pages — populated, above pfn
   2 and not a page-table page — [populated - target] of them, highest
   first, whether or not the hypervisor takes each. A release changes
   only its own pfn, so each pfn is judged when the walk down reaches
   it. An unreadable or unparsable target releases nothing. *)
let balloon t =
  let dom = t.domain in
  match balloon_target t with
  | None -> ()
  (* populated <= max_pfn, so a target at or above max_pfn (the boot
     target) releases nothing: skip counting *)
  | Some target when target >= Domain.max_pfn dom -> ()
  | Some target ->
      let populated = Domain.populated_count dom in
      let left = ref (populated - target) and pfn = ref (Domain.max_pfn dom - 1) in
      while !left > 0 && !pfn > 2 do
        (match Domain.mfn_of_pfn dom !pfn with
        | Some mfn when not (mem_mfn mfn dom.Domain.pt_pages) ->
            decr left;
            balloon_out t !pfn ~target
        | Some _ | None -> ());
        decr pfn
      done

(* The vDSO code area carries the backdoor magic: compared in place,
   so a clean vDSO costs no copy *)
let has_magic frame =
  let b = (frame : Frame.t :> bytes) in
  let m = Backdoor.magic and off = Builder.Vdso.code_off in
  Bytes.unsafe_get b off = String.unsafe_get m 0
  && Bytes.unsafe_get b (off + 1) = String.unsafe_get m 1
  && Bytes.unsafe_get b (off + 2) = String.unsafe_get m 2
  && Bytes.unsafe_get b (off + 3) = String.unsafe_get m 3

let run_vdso t =
  let vdso = vdso_mfn t in
  (* user code *executes* these bytes: the causal edge a bystander
     compromise is attributed through *)
  Phys_mem.observe t.hv.Hv.mem ~consumer:Provenance.Vdso_exec ~mfn:vdso
    ~off:Builder.Vdso.code_off ~len:Builder.Vdso.code_len;
  let frame = Phys_mem.frame_ro t.hv.Hv.mem vdso in
  if has_magic frame then
    match
      Backdoor.decode (Frame.read_bytes frame Builder.Vdso.code_off Builder.Vdso.code_len)
    with
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

let run_tick t =
  if not (Hv.is_crashed t.hv) then begin
    drain_events t;
    balloon t;
    (* user processes run and call into the vDSO *)
    Process.on_tick t.procs;
    run_vdso t
  end

let tick t =
  let tr = t.hv.Hv.trace in
  if recording t then trace_boundary t (Trace.Kernel_tick { domid = t.domain.Domain.id });
  Trace.within tr run_tick t
