type ring = Hyp | Kernel | User

type t = {
  mem : Phys_mem.t;
  hardened : bool;
  mutable idt : Addr.mfn option;
  handlers : (Addr.vaddr, string) Hashtbl.t;
  mutable handlers_synced : (Addr.vaddr * string) list option;
      (* the dump last restored, while no registration followed *)
  tlb : Paging.Tlb.t;
}

type 'a access_result = ('a, Paging.fault) result

let create ?tracer mem ~hardened =
  let tlb = Paging.Tlb.create () in
  (match tracer with Some tr -> Paging.Tlb.set_tracer tlb tr | None -> ());
  { mem; hardened; idt = None; handlers = Hashtbl.create 31; handlers_synced = None; tlb }

let mem t = t.mem
let hardened t = t.hardened
let set_idt t mfn = t.idt <- Some mfn
let idt_mfn t = t.idt
let tlb t = t.tlb
let tlb_flush_all t = Paging.Tlb.flush_all t.tlb
let tlb_invlpg t ~cr3 va = Paging.Tlb.invlpg t.tlb ~cr3 va

let sidt t =
  match t.idt with
  | Some mfn -> Layout.directmap_of_maddr (Addr.maddr_of_mfn mfn)
  | None -> failwith "Cpu.sidt: no IDT installed"

let register_handler t va label =
  t.handlers_synced <- None;
  Hashtbl.replace t.handlers va label

let handler_name t va = Hashtbl.find_opt t.handlers va

let handlers_dump t = Hashtbl.fold (fun va label acc -> (va, label) :: acc) t.handlers []

let handlers_restore t dump =
  match t.handlers_synced with
  | Some d when d == dump -> ()
  | Some _ | None ->
      Hashtbl.reset t.handlers;
      List.iter (fun (va, label) -> Hashtbl.replace t.handlers va label) dump;
      t.handlers_synced <- Some dump

let layout_permits access kind =
  match (access, kind) with
  | Layout.Read_write, _ -> true
  | Layout.Read_only, (Paging.Read | Paging.Exec) -> true
  | Layout.Read_only, Paging.Write -> false
  | Layout.No_access, _ -> false

(* Raised by [locate] on a translation fault only, and caught by the
   accessor that called it: the resolved path returns a bare int. *)
exception Fault of Paging.fault

let fault va kind reason =
  raise_notrace (Fault { Paging.fault_vaddr = va; fault_kind = kind; reason })

(* [va]'s machine address as an immediate int. The common canonical
   address is used as given, so a guest-privilege resolve allocates
   nothing. *)
let locate t ~ring ~cr3 ~kind va =
  let va = if Addr.is_canonical va then va else Addr.canonical va in
  match ring with
  | Hyp -> (
      match Layout.maddr_of_directmap va with
      | Some ma when Phys_mem.is_valid_mfn t.mem (Addr.mfn_of_maddr ma) -> Int64.to_int ma
      | Some _ | None -> fault va kind (Paging.Not_present 4))
  | Kernel | User -> (
      let access = Layout.guest_access ~hardened:t.hardened va in
      if not (layout_permits access kind) then
        fault va kind (Paging.Layout_denied (Layout.region_of_vaddr va))
      else
        let o = Paging.walk_cached t.tlb t.mem ~cr3 va in
        match Paging.outcome_fault o with
        | Some reason -> fault va kind reason
        | None -> (
            match Paging.denied ~kind ~user:(ring = User) o with
            | None -> (Paging.outcome_mfn o lsl Addr.page_shift) lor Addr.page_offset va
            | Some reason -> fault va kind reason))

(* Every architectural memory access costs one [Guest_mem_op] on the
   machine's virtual clock (page-walk and TLB costs accrue separately
   inside [Paging.walk_cached]). Charged here, at the CPU, so the record
   path (guest kernel accessors) and the replay path (direct CPU reads
   for probe events) price identically. *)
let charge_mem t =
  match Paging.Tlb.tracer t.tlb with
  | None -> ()
  | Some tr -> Trace.charge tr Vclock.Guest_mem_op

let page_mask = Addr.page_size - 1

let read_u64 t ~ring ~cr3 va =
  charge_mem t;
  match locate t ~ring ~cr3 ~kind:Paging.Read va with
  | ma -> Ok (Phys_mem.get_u64 t.mem (ma lsr Addr.page_shift) (ma land page_mask))
  | exception Fault f -> Error f

let write_u64 t ~ring ~cr3 va v =
  charge_mem t;
  match locate t ~ring ~cr3 ~kind:Paging.Write va with
  | ma ->
      Phys_mem.set_u64 t.mem (ma lsr Addr.page_shift) (ma land page_mask) v;
      Ok ()
  | exception Fault f -> Error f

(* Byte-range transfers translate page by page, so a range crossing a
   page boundary succeeds only when every page translates; one
   translation for the common range within a page. *)
let rec read_pages t ~ring ~cr3 va buf pos stop =
  let ma = locate t ~ring ~cr3 ~kind:Paging.Read va in
  let off = ma land page_mask in
  let chunk = min (stop - pos) (Addr.page_size - off) in
  Phys_mem.blit_out t.mem (ma lsr Addr.page_shift) off buf pos chunk;
  if pos + chunk < stop then
    read_pages t ~ring ~cr3 (Int64.add va (Int64.of_int chunk)) buf (pos + chunk) stop

let rec write_pages t ~ring ~cr3 va data pos stop =
  let ma = locate t ~ring ~cr3 ~kind:Paging.Write va in
  let off = ma land page_mask in
  let chunk = min (stop - pos) (Addr.page_size - off) in
  Phys_mem.blit_in t.mem data pos (ma lsr Addr.page_shift) off chunk;
  if pos + chunk < stop then
    write_pages t ~ring ~cr3 (Int64.add va (Int64.of_int chunk)) data (pos + chunk) stop

let read_into t ~ring ~cr3 va buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Cpu.read_into";
  charge_mem t;
  match if len > 0 then read_pages t ~ring ~cr3 va buf pos (pos + len) with
  | () -> Ok ()
  | exception Fault f -> Error f

(* A remap window scan's step, beside [read_into]: the slot store, the
   invlpg and the read of a frame's head through the window, with the
   TLB side replayed by [Paging.remap_step] from the window's upper walk
   done once. Kernel ring only, as the exploits that scan run there. *)
type remap = { r_cpu : t; r_paging : Paging.remap; r_window_off : int }

let remap t ~cr3 ~slot ~window =
  let permits va kind = layout_permits (Layout.guest_access ~hardened:t.hardened va) kind in
  if
    Addr.is_canonical slot && Addr.is_canonical window
    && permits slot Paging.Write && permits window Paging.Read
  then
    Option.map
      (fun r -> { r_cpu = t; r_paging = r; r_window_off = Addr.page_offset window })
      (Paging.remap t.tlb t.mem ~cr3 ~slot ~window)
  else None

let remap_read_into r ~leaf buf pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Cpu.remap_read_into";
  let t = r.r_cpu and off = r.r_window_off in
  if len = 0 || off + len > Addr.page_size then false
  else
    let mfn = Paging.remap_step r.r_paging ~leaf in
    mfn >= 0
    && begin
         charge_mem t;
         let slot = Paging.remap_slot_maddr r.r_paging in
         Phys_mem.set_u64_of_int t.mem (slot lsr Addr.page_shift) (slot land page_mask) leaf;
         charge_mem t;
         Phys_mem.blit_out t.mem mfn off buf pos len;
         true
       end

let read_bytes t ~ring ~cr3 va len =
  let buf = Bytes.create len in
  match read_into t ~ring ~cr3 va buf 0 len with Ok () -> Ok buf | Error _ as e -> e

let write_bytes t ~ring ~cr3 va data =
  charge_mem t;
  let len = Bytes.length data in
  match if len > 0 then write_pages t ~ring ~cr3 va data 0 len with
  | () -> Ok ()
  | exception Fault f -> Error f

type exception_outcome =
  | Handled of { vector : int; handler : Addr.vaddr; handler_label : string }
  | Double_fault_panic of { first_vector : int; bad_handler : int64 }
  | Triple_fault

let gate_valid t gate =
  gate.Idt.gate_present && Hashtbl.mem t.handlers gate.Idt.handler

let deliver_exception t ~vector =
  match t.idt with
  | None -> Triple_fault
  | Some idt_mfn ->
      let gate = Idt.read_gate t.mem idt_mfn vector in
      if gate_valid t gate then
        Handled
          {
            vector;
            handler = gate.Idt.handler;
            handler_label = Option.value ~default:"?" (handler_name t gate.Idt.handler);
          }
      else
        let df = Idt.read_gate t.mem idt_mfn Idt.vector_double_fault in
        if gate_valid t df then
          Double_fault_panic { first_vector = vector; bad_handler = gate.Idt.handler }
        else Triple_fault
