type crash = { reason : string; dump : string list }

type t = {
  version : Version.t;
  mem : Phys_mem.t;
  cpu : Cpu.t;
  pages : Page_info.t;
  mutable domains : Domain.t list;
  idt_mfn : Addr.mfn;
  text_mfn : Addr.mfn;
  m2p_mfns : Addr.mfn array;
  console : Buffer.t;
  xenstore : Xenstore.t;
  sched : Sched.t;
  mutable crashed : crash option;
  mutable next_domid : int;
  mutable extra_hypercalls : (int * string * hypercall_handler) list;
  mutable pt_write_hook : (Addr.mfn -> unit) option;
  trace : Trace.t;
}

and hypercall_handler = t -> Domain.t -> int64 array -> (int64, Errno.t) result

let hardened t = Version.hardened_address_space t.version

let log t line =
  Buffer.add_string t.console "(XEN) ";
  Buffer.add_string t.console line;
  Buffer.add_char t.console '\n';
  if Trace.recording t.trace then
    Trace.emit t.trace
      (Trace.Console { len = String.length line; digest = Fnv.string line })

let console_lines t = String.split_on_char '\n' (Buffer.contents t.console)
let is_crashed t = t.crashed <> None

let panic t ~reason ~dump =
  if not (is_crashed t) then begin
    if Trace.recording t.trace then Trace.emit t.trace (Trace.Panic { reason });
    t.crashed <- Some { reason; dump };
    List.iter (log t) dump;
    log t (Printf.sprintf "Panic on CPU 0: %s" reason);
    log t "****************************************";
    log t "Reboot in five seconds..."
  end

let rec live_domain id = function
  | [] -> None
  | d :: rest -> if d.Domain.id = id then Some d else live_domain id rest

let find_domain t id = live_domain id t.domains
let dom0 t = List.find_opt (fun d -> d.Domain.privileged) t.domains

let fresh_domid t =
  let id = t.next_domid in
  t.next_domid <- id + 1;
  id

let alloc_xen_page t =
  let mfn = Phys_mem.alloc t.mem Phys_mem.Xen in
  Page_info.allocated t.pages mfn;
  mfn

let alloc_domain_page t dom =
  let mfn = Phys_mem.alloc t.mem (Domain.owned dom) in
  Page_info.allocated t.pages mfn;
  mfn

let release_page t mfn =
  if Page_info.type_count t.pages mfn > 0 then Error Errno.EBUSY
  else if Page_info.ref_count t.pages mfn > 1 then Error Errno.EBUSY
  else begin
    Page_info.freed t.pages mfn;
    Phys_mem.free t.mem mfn;
    Ok ()
  end

let notify_pt_write t mfn = match t.pt_write_hook with Some hook -> hook mfn | None -> ()

(* The frames [alloc_xen_page] would take until [leave] are free,
   claimed in one pass over the free bitmap. *)
let exhaust_memory t ~leave =
  let taken = max 0 (Phys_mem.free_frames t.mem - max 0 leave) in
  if taken > 0 then begin
    let claimed = Phys_mem.claim t.mem Phys_mem.Xen taken in
    for k = 0 to taken - 1 do
      Page_info.allocated t.pages claimed.(k)
    done;
    log t (Printf.sprintf "memory pressure: %d frames vanished into the Xen heap" taken)
  end;
  taken

(* --- M2P table ------------------------------------------------------- *)

let m2p_invalid_entry = 0x5555_5555_5555_5555L
let entries_per_m2p_frame = Addr.page_size / 8

(* Entry [mfn] of the M2P is at byte [m2p_offset mfn] of frame
   [m2p_frame_for t mfn]: two ints, so a lookup allocates nothing. *)
let m2p_shift = Addr.page_shift - 3

let m2p_frame_for t mfn =
  let idx = mfn lsr m2p_shift in
  if mfn < 0 || idx >= Array.length t.m2p_mfns then invalid_arg "Hv.m2p_frame_for: bad mfn";
  Array.unsafe_get t.m2p_mfns idx

let m2p_offset mfn = (mfn land (entries_per_m2p_frame - 1)) lsl 3

let m2p_set t mfn pfn =
  let frame_mfn = m2p_frame_for t mfn and off = m2p_offset mfn in
  let value = match pfn with Some p -> Int64.of_int p | None -> m2p_invalid_entry in
  Frame.set_u64 (Phys_mem.frame t.mem frame_mfn) off value;
  Phys_mem.taint t.mem ~mfn:frame_mfn ~off ~len:8;
  (* an authorized hypervisor-internal update: integrity monitors track
     it through the same stream as validated page-table writes *)
  notify_pt_write t frame_mfn

(* The pfn the M2P entry for [mfn] holds in [frame], its M2P frame's
   bytes: an invalid or negative entry holds none, -1. *)
let[@inline] m2p_entry frame mfn =
  let v = Bytes.get_int64_le frame (m2p_offset mfn) in
  if v = m2p_invalid_entry || v < 0L then -1 else Int64.to_int v

let m2p_lookup t mfn = m2p_entry (Phys_mem.frame_ro t.mem (m2p_frame_for t mfn) :> bytes) mfn

let is_m2p_frame t mfn = Array.exists (fun m -> m = mfn) t.m2p_mfns

(* [m2p_lookup t mfn <> pfn] for every populated pfn, in one pass per
   domain that fetches an M2P frame only when the next entry lies in
   another one (a P2M maps runs of neighbouring frames). *)
let rec count_m2p_mismatches t n = function
  | [] -> n
  | dom :: rest ->
      let n = ref n and cur = ref (-1) and frame = ref Bytes.empty in
      for pfn = 0 to Domain.max_pfn dom - 1 do
        match Domain.mfn_of_pfn dom pfn with
        | None -> ()
        | Some mfn ->
            if mfn lsr m2p_shift <> !cur then begin
              frame := (Phys_mem.frame_ro t.mem (m2p_frame_for t mfn) :> bytes);
              cur := mfn lsr m2p_shift
            end;
            if m2p_entry !frame mfn <> pfn then begin
              (* the verdict depends on the inconsistent M2P entry *)
              Phys_mem.observe t.mem ~consumer:Provenance.M2p_check ~mfn:(m2p_frame_for t mfn)
                ~off:(m2p_offset mfn) ~len:8;
              incr n
            end
      done;
      count_m2p_mismatches t !n rest

let m2p_mismatches t = count_m2p_mismatches t 0 t.domains

(* --- exceptions ------------------------------------------------------ *)

let handler_vaddr t vector =
  Layout.directmap_of_maddr
    (Int64.add (Addr.maddr_of_mfn t.text_mfn) (Int64.of_int (vector * 32)))

let crash_dump t ~first_vector ~bad_handler ~detail =
  [
    "*** DOUBLE FAULT ***";
    Printf.sprintf "----[ %s ]----" (Version.banner t.version);
    Printf.sprintf "CPU:    0";
    Printf.sprintf "RIP:    %04x:[<%016Lx>] %s" Idt.xen_code_selector bad_handler detail;
    Printf.sprintf "RFLAGS: 0000000000010086   CONTEXT: hypervisor";
    Printf.sprintf "rax: %016Lx   rbx: 0000000000000000   rcx: 0000000000000000" bad_handler;
    Printf.sprintf "cr3: %016Lx   cr2: 0000000000000000" (Addr.maddr_of_mfn t.idt_mfn);
    "Xen call trace:";
    Printf.sprintf "   [<%016Lx>] do_double_fault+0x0/0x0" bad_handler;
    Printf.sprintf "   (corrupted gate for vector %d)" first_vector;
  ]

let deliver_fault t ~vector ~detail =
  Trace.charge t.trace Vclock.Fault_delivery;
  let outcome = Cpu.deliver_exception t.cpu ~vector in
  let double = match outcome with Cpu.Handled _ -> false | _ -> true in
  Trace.note_fault t.trace ~double;
  if Trace.recording t.trace then begin
    let escalation =
      match outcome with
      | Cpu.Handled _ -> 0
      | Cpu.Double_fault_panic _ -> 1
      | Cpu.Triple_fault -> 2
    in
    Trace.emit t.trace (Trace.Fault { vector; escalation })
  end;
  (match outcome with
  | Cpu.Handled _ -> ()
  | Cpu.Double_fault_panic { first_vector; bad_handler } ->
      panic t ~reason:"DOUBLE FAULT -- system shutdown"
        ~dump:(crash_dump t ~first_vector ~bad_handler ~detail)
  | Cpu.Triple_fault ->
      panic t ~reason:"TRIPLE FAULT -- machine reset" ~dump:[ "*** TRIPLE FAULT ***" ]);
  outcome

(* --- scheduling ------------------------------------------------------- *)

let sched_tick t =
  if is_crashed t then Sched.Idle
  else begin
    let outcome = Sched.tick t.sched in
    (match outcome with
    | Sched.Cpu_stalled reason when Sched.watchdog_fired t.sched ->
        panic t ~reason:"Watchdog timer detected a hard LOCKUP"
          ~dump:
            [
              "*** WATCHDOG TIMEOUT ***";
              Printf.sprintf "----[ %s ]----" (Version.banner t.version);
              Printf.sprintf "CPU0 stuck for %ds: %s" (Sched.stalled_slices t.sched) reason;
            ]
    | Sched.Cpu_stalled _ | Sched.Scheduled _ | Sched.Idle -> ());
    outcome
  end

(* --- TLB maintenance -------------------------------------------------- *)

let tlb_flush_all t = Cpu.tlb_flush_all t.cpu
let tlb_invlpg t ~cr3 va = Cpu.tlb_invlpg t.cpu ~cr3 va

(* --- checkpoint / restore --------------------------------------------- *)

type checkpoint = {
  ck_domains : Domain.t list;
  ck_next_domid : int;
  ck_crashed : crash option;
  ck_console_len : int;
  ck_xenstore : (string * string) list;
  ck_sched : Sched.checkpoint;
  ck_extra : (int * string * hypercall_handler) list;
  ck_hook : (Addr.mfn -> unit) option;
  ck_trace : Trace.mark;  (* counters and virtual clock, restored with the machine *)
  ck_pages : Page_info.checkpoint;
  ck_handlers : (Addr.vaddr * string) list;
}

let checkpoint t =
  Phys_mem.capture_baseline t.mem;
  {
    ck_domains = List.map Domain.checkpoint t.domains;
    ck_next_domid = t.next_domid;
    ck_crashed = t.crashed;
    ck_console_len = Buffer.length t.console;
    ck_xenstore = Xenstore.dump t.xenstore;
    ck_sched = Sched.checkpoint t.sched;
    ck_extra = t.extra_hypercalls;
    ck_hook = t.pt_write_hook;
    ck_trace = Trace.mark t.trace;
    ck_pages = Page_info.checkpoint t.pages;
    ck_handlers = Cpu.handlers_dump t.cpu;
  }

(* Restore the checkpointed domains in place, keeping the live records.
   A domain the trial destroyed comes back as a fresh copy; one it
   created is dropped with the old list. Either way the checkpoint is
   only read, so it stays immune to mutation by the restored system. *)
let rec restore_domains live = function
  | [] -> []
  | c :: rest ->
      let d =
        (* the record with the same id, if the trial left it in place *)
        match live_domain c.Domain.id live with
        | Some d ->
            Domain.restore_into d ~from:c;
            d
        | None -> Domain.deep_copy c
      in
      d :: restore_domains live rest

(* Whether [live] holds the checkpointed domains' ids, in order: the
   case of every trial that created and destroyed no domain, restored
   record by record in the same list. *)
let rec same_domains live ck =
  match (live, ck) with
  | [], [] -> true
  | d :: live, c :: ck -> d.Domain.id = c.Domain.id && same_domains live ck
  | _ :: _, [] | [], _ :: _ -> false

let restore t ck =
  ignore (Phys_mem.reset_to_baseline t.mem : int);
  Page_info.restore t.pages ck.ck_pages;
  if same_domains t.domains ck.ck_domains then
    List.iter2 (fun d c -> Domain.restore_into d ~from:c) t.domains ck.ck_domains
  else t.domains <- restore_domains t.domains ck.ck_domains;
  t.next_domid <- ck.ck_next_domid;
  t.crashed <- ck.ck_crashed;
  Buffer.truncate t.console ck.ck_console_len;
  Xenstore.restore_dump t.xenstore ck.ck_xenstore;
  Sched.restore t.sched ck.ck_sched;
  t.extra_hypercalls <- ck.ck_extra;
  t.pt_write_hook <- ck.ck_hook;
  (* the counters and virtual clock roll back with the machine; the
     trace ring does not — a recording deliberately spans resets,
     which replay re-executes *)
  Trace.rewind t.trace ck.ck_trace;
  Cpu.handlers_restore t.cpu ck.ck_handlers;
  (* reset_to_baseline bumped the generation, but flush anyway so the
     restored machine starts from a cold TLB like a rebooted host *)
  Cpu.tlb_flush_all t.cpu

(* --- COW forking ------------------------------------------------------ *)

(* A new hypervisor forked from a frozen template: physical memory is a
   {!Phys_mem.fork} (frames shared copy-on-write), everything else is
   rebuilt from the template's checkpoint — the same state [restore]
   would produce, minus the boot. The checkpoint is only read, so one
   frozen template serves concurrent forks on separate domains; the
   fork's own [restore ck] works unchanged because its memory is born
   with an armed baseline equal to the checkpointed state. *)
let fork (template : t) ck =
  let mem = Phys_mem.fork template.mem in
  (* the fork starts at the template's checkpointed counters and virtual
     time under the template's live cost model, so a pooled trial reads
     the same timestamps a fresh boot would *)
  let trace = Trace.fork template.trace ck.ck_trace in
  let cpu =
    Cpu.create ~tracer:trace mem ~hardened:(Version.hardened_address_space template.version)
  in
  let console = Buffer.create 1024 in
  Buffer.add_substring console (Buffer.contents template.console) 0 ck.ck_console_len;
  let xenstore = Xenstore.create () in
  Xenstore.set_tracer xenstore trace;
  Xenstore.restore_dump xenstore ck.ck_xenstore;
  let sched = Sched.create () in
  Sched.restore sched ck.ck_sched;
  let t =
    {
      version = template.version;
      mem;
      cpu;
      pages = Page_info.of_checkpoint ck.ck_pages;
      domains = List.map Domain.deep_copy ck.ck_domains;
      idt_mfn = template.idt_mfn;
      text_mfn = template.text_mfn;
      m2p_mfns = Array.copy template.m2p_mfns;
      console;
      xenstore;
      sched;
      crashed = ck.ck_crashed;
      next_domid = ck.ck_next_domid;
      extra_hypercalls = ck.ck_extra;
      pt_write_hook = ck.ck_hook;
      trace;
    }
  in
  Cpu.set_idt cpu t.idt_mfn;
  Cpu.handlers_restore cpu ck.ck_handlers;
  t

(* --- hypercall extension table --------------------------------------- *)

let register_hypercall t ~number ~name handler =
  let others = List.filter (fun (n, _, _) -> n <> number) t.extra_hypercalls in
  t.extra_hypercalls <- (number, name, handler) :: others

let lookup_hypercall t number =
  List.find_map
    (fun (n, name, h) -> if n = number then Some (name, h) else None)
    t.extra_hypercalls

(* --- boot ------------------------------------------------------------ *)

let boot ~version ~frames =
  let mem = Phys_mem.create ~frames in
  let trace = Trace.create () in
  let cpu = Cpu.create ~tracer:trace mem ~hardened:(Version.hardened_address_space version) in
  let pages = Page_info.create ~frames in
  let m2p_frame_count = (frames + entries_per_m2p_frame - 1) / entries_per_m2p_frame in
  (* Allocation order is deterministic: text, IDT, then the M2P frames. *)
  let text_mfn = Phys_mem.alloc mem Phys_mem.Xen in
  let idt_mfn = Phys_mem.alloc mem Phys_mem.Xen in
  let m2p_mfns = Array.init m2p_frame_count (fun _ -> Phys_mem.alloc mem Phys_mem.Xen) in
  let t =
    {
      version;
      mem;
      cpu;
      pages;
      domains = [];
      idt_mfn;
      text_mfn;
      m2p_mfns;
      console = Buffer.create 1024;
      xenstore = Xenstore.create ();
      sched = Sched.create ();
      crashed = None;
      next_domid = 0;
      extra_hypercalls = [];
      pt_write_hook = None;
      trace;
    }
  in
  Xenstore.set_tracer t.xenstore trace;
  Page_info.allocated pages text_mfn;
  Page_info.allocated pages idt_mfn;
  Array.iter (Page_info.allocated pages) m2p_mfns;
  (* Every M2P entry starts invalid. *)
  for mfn = 0 to frames - 1 do
    m2p_set t mfn None
  done;
  (* Install the IDT: Xen handler entry points live in the text frame. *)
  Idt.init mem idt_mfn;
  Cpu.set_idt cpu idt_mfn;
  let install vector name =
    let handler = handler_vaddr t vector in
    Cpu.register_handler cpu handler name;
    Idt.write_gate mem idt_mfn vector
      { Idt.handler; selector = Idt.xen_code_selector; gate_present = true }
  in
  install 0 "divide_error";
  install 3 "int3";
  install 6 "invalid_op";
  install Idt.vector_double_fault "double_fault";
  install Idt.vector_general_protection "general_protection";
  install Idt.vector_page_fault "page_fault";
  install 32 "irq0";
  log t (Printf.sprintf "Xen version %s (x86_64, PV) booted" (Version.to_string version));
  log t (Printf.sprintf "System RAM: %d KiB across %d frames" (frames * Addr.page_size / 1024) frames);
  t
