type ring = Hyp | Kernel | User

type t = {
  mem : Phys_mem.t;
  hardened : bool;
  mutable idt : Addr.mfn option;
  handlers : (Addr.vaddr, string) Hashtbl.t;
  tlb : Paging.Tlb.t;
}

type 'a access_result = ('a, Paging.fault) result

let create ?tracer mem ~hardened =
  let tlb = Paging.Tlb.create () in
  (match tracer with Some tr -> Paging.Tlb.set_tracer tlb tr | None -> ());
  { mem; hardened; idt = None; handlers = Hashtbl.create 31; tlb }

let mem t = t.mem
let hardened t = t.hardened
let set_idt t mfn = t.idt <- Some mfn
let idt_mfn t = t.idt
let tlb t = t.tlb
let tlb_flush_all t = Paging.Tlb.flush_all t.tlb
let tlb_invlpg t ~cr3 va = Paging.Tlb.invlpg t.tlb ~cr3 va
let tlb_stats t = Paging.Tlb.stats t.tlb

let sidt t =
  match t.idt with
  | Some mfn -> Layout.directmap_of_maddr (Addr.maddr_of_mfn mfn)
  | None -> failwith "Cpu.sidt: no IDT installed"

let register_handler t va label = Hashtbl.replace t.handlers va label
let handler_name t va = Hashtbl.find_opt t.handlers va
let handlers_dump t = Hashtbl.fold (fun va label acc -> (va, label) :: acc) t.handlers []

let handlers_restore t dump =
  Hashtbl.reset t.handlers;
  List.iter (fun (va, label) -> Hashtbl.replace t.handlers va label) dump

let fault va kind reason = Error { Paging.fault_vaddr = va; fault_kind = kind; reason }

let layout_permits access kind =
  match (access, kind) with
  | Layout.Read_write, _ -> true
  | Layout.Read_only, (Paging.Read | Paging.Exec) -> true
  | Layout.Read_only, Paging.Write -> false
  | Layout.No_access, _ -> false

let resolve t ~ring ~cr3 ~kind va =
  let va = Addr.canonical va in
  match ring with
  | Hyp -> (
      match Layout.maddr_of_directmap va with
      | Some ma when Phys_mem.is_valid_mfn t.mem (Addr.mfn_of_maddr ma) -> Ok ma
      | Some _ | None -> fault va kind (Paging.Not_present 4))
  | Kernel | User -> (
      let access = Layout.guest_access ~hardened:t.hardened va in
      if not (layout_permits access kind) then
        fault va kind (Paging.Layout_denied (Layout.region_of_vaddr va))
      else
        match Paging.translate_cached t.tlb t.mem ~cr3 ~kind ~user:(ring = User) va with
        | Ok leaf -> Ok (Paging.leaf_maddr leaf va)
        | Error e -> Error e)

(* Every architectural memory access costs one [Guest_mem_op] on the
   machine's virtual clock (page-walk and TLB costs accrue separately
   inside [Paging.walk_cached]). Charged here, at the CPU, so the record
   path (guest kernel accessors) and the replay path (direct CPU reads
   for probe events) price identically. *)
let charge_mem t =
  match Paging.Tlb.tracer t.tlb with
  | None -> ()
  | Some tr -> Trace.charge tr Vclock.Guest_mem_op

let read_u64 t ~ring ~cr3 va =
  charge_mem t;
  match resolve t ~ring ~cr3 ~kind:Paging.Read va with
  | Ok ma -> Ok (Phys_mem.read_u64 t.mem ma)
  | Error e -> Error e

let write_u64 t ~ring ~cr3 va v =
  charge_mem t;
  match resolve t ~ring ~cr3 ~kind:Paging.Write va with
  | Ok ma -> Ok (Phys_mem.write_u64 t.mem ma v)
  | Error e -> Error e

(* Byte-range transfers translate page by page, so a range crossing a page
   boundary succeeds only when every page translates. A plain loop over
   the chunks: no closure, no ref, and one translation for the common
   range within a page. *)
let rec read_pages t ~ring ~cr3 va buf pos =
  let len = Bytes.length buf - pos in
  if len <= 0 then Ok buf
  else
    let chunk = min len (Addr.page_size - Addr.page_offset va) in
    match resolve t ~ring ~cr3 ~kind:Paging.Read va with
    | Error e -> Error e
    | Ok ma ->
        Phys_mem.read_into t.mem ma buf pos chunk;
        if chunk = len then Ok buf
        else read_pages t ~ring ~cr3 (Int64.add va (Int64.of_int chunk)) buf (pos + chunk)

let rec write_pages t ~ring ~cr3 va data pos =
  let len = Bytes.length data - pos in
  if len <= 0 then Ok ()
  else
    let chunk = min len (Addr.page_size - Addr.page_offset va) in
    match resolve t ~ring ~cr3 ~kind:Paging.Write va with
    | Error e -> Error e
    | Ok ma ->
        Phys_mem.write_from t.mem ma data pos chunk;
        if chunk = len then Ok ()
        else write_pages t ~ring ~cr3 (Int64.add va (Int64.of_int chunk)) data (pos + chunk)

let read_bytes t ~ring ~cr3 va len =
  charge_mem t;
  read_pages t ~ring ~cr3 va (Bytes.create len) 0

let write_bytes t ~ring ~cr3 va data =
  charge_mem t;
  write_pages t ~ring ~cr3 va data 0

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
