type access_kind = Read | Write | Exec

type fault_reason =
  | Not_present of int
  | Write_to_readonly
  | User_access_to_supervisor
  | Nx_violation
  | Non_canonical
  | Layout_denied of Layout.region
  | Bad_physical of Addr.mfn

type fault = { fault_vaddr : Addr.vaddr; fault_kind : access_kind; reason : fault_reason }
type step = { level : int; table_mfn : Addr.mfn; index : int; entry : Pte.t }

type translation = {
  t_maddr : Addr.maddr;
  writable : bool;
  user : bool;
  executable : bool;
  superpage : bool;
  path : step list;
}

type leaf = {
  page_maddr : Addr.maddr;
  l_writable : bool;
  l_user : bool;
  l_executable : bool;
  l_superpage : bool;
  l_gen : int;
}

let leaf_maddr l va = Int64.add l.page_maddr (Int64.of_int (Addr.page_offset va))

(* PTE frame number field: bits 12..51, as [Pte.mfn] decodes it. *)
let mfn_bits = (1 lsl 40) - 1

(* Every walk charges one [Page_walk_step] per level it decoded: the
   levels 4..[level], including the one it stopped at. *)
let charge_steps tracer level r =
  (match tracer with
  | None -> ()
  | Some tr -> Trace.charge_n tr Vclock.Page_walk_step (5 - level));
  r

let leaf_at mem ~tracer ~level ~mfn ~rw ~us ~nx =
  if not (Phys_mem.is_valid_mfn mem mfn) then charge_steps tracer level (Error (Bad_physical mfn))
  else
    charge_steps tracer level
      (Ok
         {
           page_maddr = Addr.maddr_of_mfn mfn;
           l_writable = rw;
           l_user = us;
           l_executable = not nx;
           l_superpage = level = 2;
           l_gen = Phys_mem.generation mem;
         })

(* The one page-table walker. Each level reads its entry straight out of
   the table frame and tests bits on it, so a walk allocates nothing but
   its leaf; [sink], when given, sees every decoded step outermost first
   — the audit path of [walk] and [walk_path]. [vi] holds the VA's bits
   0..62, which carry every index and the page offset. *)
let rec descend mem ~sink ~tracer vi level table_mfn ~rw ~us ~nx =
  let index = (vi lsr (Addr.page_shift + (9 * (level - 1)))) land 0x1ff in
  let raw = Bytes.get_int64_le (Phys_mem.pt_frame mem table_mfn ~index :> bytes) (8 * index) in
  (match sink with None -> () | Some f -> f { level; table_mfn; index; entry = raw });
  let bits = Int64.to_int raw in
  if bits land 1 = 0 then charge_steps tracer level (Error (Not_present level))
  else
    let rw = rw && bits land 0x2 <> 0 in
    let us = us && bits land 0x4 <> 0 in
    let nx = nx || raw < 0L (* NX is bit 63 *) in
    let mfn = (bits lsr Addr.page_shift) land mfn_bits in
    if level = 1 then
      (* a forged leaf can point anywhere; outside installed RAM the
         bus access aborts, so surface a fault, not an exception *)
      leaf_at mem ~tracer ~level ~mfn ~rw ~us ~nx
    else if level = 2 && bits land 0x80 <> 0 then
      (* Superpage base frame: hardware ignores/requires-zero the low 9
         MFN bits of a PSE L2 entry; we round down, so an exploit forging
         a PSE mapping over its page-table pages covers the whole 2 MiB-
         aligned group. The leaf is the 4 KiB frame [va] falls in. *)
      let mfn = (mfn land lnot 0x1ff) + ((vi lsr Addr.page_shift) land 0x1ff) in
      leaf_at mem ~tracer ~level ~mfn ~rw ~us ~nx
    else descend mem ~sink ~tracer vi (level - 1) mfn ~rw ~us ~nx

let walk_leaf ?sink ?tracer mem ~cr3 va =
  descend mem ~sink ~tracer (Int64.to_int va) 4 cr3 ~rw:true ~us:true ~nx:false

let walk_general mem ~cr3 va =
  let path = ref [] in
  let result = walk_leaf ~sink:(fun s -> path := s :: !path) mem ~cr3 va in
  (List.rev !path, result)

let translation path va l =
  {
    t_maddr = leaf_maddr l va;
    writable = l.l_writable;
    user = l.l_user;
    executable = l.l_executable;
    superpage = l.l_superpage;
    path;
  }

let walk mem ~cr3 va =
  let path, result = walk_general mem ~cr3 va in
  Result.map (translation path va) result

let walk_path mem ~cr3 va = fst (walk_general mem ~cr3 va)

let leaf_denied ~kind ~user l =
  if user && not l.l_user then Some User_access_to_supervisor
  else
    match kind with
    | Write when not l.l_writable -> Some Write_to_readonly
    | Exec when not l.l_executable -> Some Nx_violation
    | Read | Write | Exec -> None

let fault va kind reason = Error { fault_vaddr = va; fault_kind = kind; reason }

let translate mem ~cr3 ~kind ~user va =
  if not (Addr.is_canonical va) then fault va kind Non_canonical
  else
    let path, result = walk_general mem ~cr3 va in
    match result with
    | Error reason -> fault va kind reason
    | Ok l -> (
        match leaf_denied ~kind ~user l with
        | None -> Ok (translation path va l)
        | Some reason -> fault va kind reason)

(* --- software TLB ----------------------------------------------------- *)

module Tlb = struct
  (* What the hardware TLB caches per (address space, page): the leaf a
     walk ended at — page frame, accumulated permission bits, superpage
     flag — stamped with the Phys_mem generation it was walked under.
     The key packs cr3 above the 36-bit virtual page number (VA bits
     12..47, injective on canonical addresses) into one int. *)
  module Entries = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    (* fold cr3 into the low bits the table indexes by *)
    let hash k = (k lxor (k lsr 36)) land max_int
  end)

  type stats = { hits : int; misses : int; flushes : int; invlpgs : int }

  type t = {
    entries : leaf Entries.t;
    capacity : int;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
    mutable invlpgs : int;
    mutable tracer : Trace.t option;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Paging.Tlb.create: capacity must be positive";
    {
      entries = Entries.create 256;
      capacity;
      hits = 0;
      misses = 0;
      flushes = 0;
      invlpgs = 0;
      tracer = None;
    }

  let set_tracer t tr = t.tracer <- Some tr
  let tracer t = t.tracer

  let vpn_bits = 36
  let max_cr3 = (1 lsl (Sys.int_size - 1 - vpn_bits)) - 1

  let key ~cr3 va =
    if cr3 < 0 || cr3 > max_cr3 then
      invalid_arg (Printf.sprintf "Paging.Tlb: cr3 %#x outside the packable range" cr3);
    (cr3 lsl vpn_bits) lor ((Int64.to_int va lsr Addr.page_shift) land ((1 lsl vpn_bits) - 1))

  let flush_all t =
    if Entries.length t.entries > 0 then Entries.reset t.entries;
    t.flushes <- t.flushes + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_flush tr;
        if Trace.recording tr then Trace.emit tr Trace.Tlb_flush_all

  let invlpg t ~cr3 va =
    Entries.remove t.entries (key ~cr3 va);
    t.invlpgs <- t.invlpgs + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_invlpg tr;
        if Trace.recording tr then Trace.emit tr (Trace.Tlb_invlpg { va })

  let stats t = { hits = t.hits; misses = t.misses; flushes = t.flushes; invlpgs = t.invlpgs }
  let size t = Entries.length t.entries
end

let walk_cached tlb mem ~cr3 va =
  let key = Tlb.key ~cr3 va in
  (* [find_opt], not [find]: a miss raising [Not_found] costs more than
     the [Some] a hit allocates *)
  match Tlb.Entries.find_opt tlb.Tlb.entries key with
  | Some l when l.l_gen = Phys_mem.generation mem ->
      tlb.Tlb.hits <- tlb.Tlb.hits + 1;
      (match tlb.Tlb.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_hit);
      Ok l
  | Some _ | None -> (
      tlb.Tlb.misses <- tlb.Tlb.misses + 1;
      (match tlb.Tlb.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_miss);
      match walk_leaf ?tracer:tlb.Tlb.tracer mem ~cr3 va with
      | Error _ as e -> e (* faults are never cached, like real hardware *)
      | Ok l as ok ->
          if Tlb.Entries.length tlb.Tlb.entries >= tlb.Tlb.capacity then Tlb.flush_all tlb;
          Tlb.Entries.replace tlb.Tlb.entries key l;
          ok)

let translate_cached tlb mem ~cr3 ~kind ~user va =
  if not (Addr.is_canonical va) then fault va kind Non_canonical
  else
    match walk_cached tlb mem ~cr3 va with
    | Error reason -> fault va kind reason
    | Ok l -> (
        match leaf_denied ~kind ~user l with None -> Ok l | Some reason -> fault va kind reason)

let pp_fault_reason ppf = function
  | Not_present level -> Format.fprintf ppf "not-present at L%d" level
  | Write_to_readonly -> Format.fprintf ppf "write to read-only mapping"
  | User_access_to_supervisor -> Format.fprintf ppf "user access to supervisor mapping"
  | Nx_violation -> Format.fprintf ppf "NX violation"
  | Non_canonical -> Format.fprintf ppf "non-canonical address"
  | Layout_denied region ->
      Format.fprintf ppf "access denied by address-space layout (%s)" (Layout.region_name region)
  | Bad_physical mfn -> Format.fprintf ppf "leaf frame %#x outside installed RAM" mfn

let pp_fault ppf { fault_vaddr; fault_kind; reason } =
  let kind = match fault_kind with Read -> "read" | Write -> "write" | Exec -> "exec" in
  Format.fprintf ppf "#PF %s at %a: %a" kind Addr.pp_vaddr fault_vaddr pp_fault_reason reason
