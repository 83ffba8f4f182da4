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
  l_mfn : Addr.mfn;
  l_writable : bool;
  l_user : bool;
  l_executable : bool;
  l_superpage : bool;
}

let leaf_maddr l va = Int64.add (Addr.maddr_of_mfn l.l_mfn) (Int64.of_int (Addr.page_offset va))

(* A walk's outcome as an immediate int, which the TLB stores and hands
   back without allocating. A leaf is its frame number above four bits:
   writable (bit 0), user (bit 1), executable (bit 2), superpage (bit 3).
   A fault is negative: [-level] for a not-present entry at [level]
   (1..4), [-(5 + mfn)] for a leaf frame outside installed RAM. *)
type outcome = int

let writable_bit = 1
let user_bit = 2
let exec_bit = 4
let superpage_bit = 8
let outcome_mfn o = o lsr 4

let outcome_fault o =
  if o >= 0 then None else if o >= -4 then Some (Not_present (-o)) else Some (Bad_physical (-o - 5))

let outcome_leaf o =
  match outcome_fault o with
  | Some reason -> Error reason
  | None ->
      Ok
        {
          l_mfn = outcome_mfn o;
          l_writable = o land writable_bit <> 0;
          l_user = o land user_bit <> 0;
          l_executable = o land exec_bit <> 0;
          l_superpage = o land superpage_bit <> 0;
        }

let denied ~kind ~user o =
  if user && o land user_bit = 0 then Some User_access_to_supervisor
  else
    match kind with
    | Write when o land writable_bit = 0 -> Some Write_to_readonly
    | Exec when o land exec_bit = 0 -> Some Nx_violation
    | Read | Write | Exec -> None

(* PTE frame number field: bits 12..51, as [Pte.mfn] decodes it. *)
let mfn_bits = (1 lsl 40) - 1

(* Every walk charges one [Page_walk_step] per level it decoded: the
   levels 4..[level], including the one it stopped at. *)
let charge_steps tracer level o =
  (match tracer with
  | None -> ()
  | Some tr -> Trace.charge_n tr Vclock.Page_walk_step (5 - level));
  o

let leaf_at mem ~tracer ~level ~mfn ~rw ~us ~nx =
  if not (Phys_mem.is_valid_mfn mem mfn) then charge_steps tracer level (-(5 + mfn))
  else
    charge_steps tracer level
      ((mfn lsl 4)
      lor (if rw then writable_bit else 0)
      lor (if us then user_bit else 0)
      lor (if nx then 0 else exec_bit)
      lor if level = 2 then superpage_bit else 0)

(* The page-table walker. Each level reads its entry straight out of
   the table frame and tests bits on it, and the outcome is an int, so a
   walk allocates nothing; [sink], when given, sees every decoded step
   outermost first — the audit path of [walk] and [walk_path]. [vi]
   holds the VA's bits 0..62, which carry every index and the page
   offset. [l1_slot] below is its sibling for [update_va_mapping]: it
   stops at the L1 entry, with no sink and no leaf, and must keep the
   same index, present-bit, level-2 PSE and mfn-mask rules (test_machine
   checks it against [walk_path] over forged tables). *)
let rec descend mem ~sink ~tracer vi level table_mfn ~rw ~us ~nx =
  let index = (vi lsr (Addr.page_shift + (9 * (level - 1)))) land 0x1ff in
  let frame = (Phys_mem.pt_frame mem table_mfn ~index :> bytes) in
  (* the entry is decoded unboxed; only a sink sees it as an int64 *)
  (match sink with
  | None -> ()
  | Some f -> f { level; table_mfn; index; entry = Bytes.get_int64_le frame (8 * index) });
  let bits = Int64.to_int (Bytes.get_int64_le frame (8 * index)) in
  if bits land 1 = 0 then charge_steps tracer level (-level)
  else
    let rw = rw && bits land 0x2 <> 0 in
    let us = us && bits land 0x4 <> 0 in
    let nx = nx || Bytes.get_int64_le frame (8 * index) < 0L (* NX is bit 63 *) in
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

let walk_outcome ?sink ?tracer mem ~cr3 va =
  descend mem ~sink ~tracer (Int64.to_int va) 4 cr3 ~rw:true ~us:true ~nx:false

let walk_general mem ~cr3 va =
  let path = ref [] in
  let o = walk_outcome ~sink:(fun s -> path := s :: !path) mem ~cr3 va in
  (List.rev !path, o)

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
  let path, o = walk_general mem ~cr3 va in
  Result.map (translation path va) (outcome_leaf o)

let walk_path mem ~cr3 va = fst (walk_general mem ~cr3 va)

(* The machine address of the L1 entry [va]'s walk ends at, read with
   the same [pt_frame] observations as [walk_path]; -1 when the walk
   stops before an L1 table (an entry not present, or a superpage). *)
let rec l1_slot mem vi level table_mfn =
  let index = (vi lsr (Addr.page_shift + (9 * (level - 1)))) land 0x1ff in
  let frame = (Phys_mem.pt_frame mem table_mfn ~index :> bytes) in
  if level = 1 then (table_mfn lsl Addr.page_shift) + (8 * index)
  else
    let bits = Int64.to_int (Bytes.get_int64_le frame (8 * index)) in
    if bits land 1 = 0 || (level = 2 && bits land 0x80 <> 0) then -1
    else l1_slot mem vi (level - 1) ((bits lsr Addr.page_shift) land mfn_bits)

let l1_entry_maddr mem ~cr3 va = l1_slot mem (Int64.to_int va) 4 cr3

let fault va kind reason = Error { fault_vaddr = va; fault_kind = kind; reason }

let translate mem ~cr3 ~kind ~user va =
  if not (Addr.is_canonical va) then fault va kind Non_canonical
  else
    let path, o = walk_general mem ~cr3 va in
    match outcome_leaf o with
    | Error reason -> fault va kind reason
    | Ok l -> (
        match denied ~kind ~user o with
        | None -> Ok (translation path va l)
        | Some reason -> fault va kind reason)

(* --- software TLB ----------------------------------------------------- *)

module Tlb = struct
  (* What the hardware TLB caches per (address space, page): the leaf a
     walk ended at — page frame, accumulated permission bits, superpage
     flag — stamped with the Phys_mem generation it was walked under.
     The key packs cr3 above the 36-bit virtual page number (VA bits
     12..47, injective on canonical addresses) into one int.

     The table is open-addressed with linear probing over power-of-two
     int arrays kept at most half full, each leaf held as its packed
     outcome: a lookup is a few int compares, and neither a lookup nor
     a fill allocates or leaves the GC anything to trace. A slot is
     live while its stamp equals the table's epoch, so a flush is one
     increment; a removal shifts the rest of its probe run back,
     leaving no tombstones. The arrays start small and double as live
     entries grow, up to twice the capacity. *)
  type stats = { hits : int; misses : int; flushes : int; invlpgs : int }

  type t = {
    mutable keys : int array;
    mutable leaves : outcome array;  (* leaf outcomes only *)
    mutable gens : int array;  (* the Phys_mem generation each was walked under *)
    mutable stamps : int array;
    mutable epoch : int;
    mutable size : int;  (* live slots *)
    capacity : int;
    mutable hits : int;
    mutable misses : int;
    mutable flushes : int;
    mutable invlpgs : int;
    mutable tracer : Trace.t option;
  }

  let dead = -1 (* a stamp no epoch equals *)

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Paging.Tlb.create: capacity must be positive";
    let slots = 256 in
    {
      keys = Array.make slots 0;
      leaves = Array.make slots 0;
      gens = Array.make slots 0;
      stamps = Array.make slots dead;
      epoch = 0;
      size = 0;
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

  (* fold cr3 into the low bits the slot index takes *)
  let home t k = (k lxor (k lsr vpn_bits)) land (Array.length t.keys - 1)
  let live t i = Array.unsafe_get t.stamps i = t.epoch

  (* The slot holding [k], or the vacant slot ending its probe run. *)
  let rec probe t k i =
    if live t i && Array.unsafe_get t.keys i <> k then
      probe t k ((i + 1) land (Array.length t.keys - 1))
    else i

  let slot t k = probe t k (home t k)

  let found t i k = live t i && Array.unsafe_get t.keys i = k

  let set t i k leaf gen =
    t.keys.(i) <- k;
    t.leaves.(i) <- leaf;
    t.gens.(i) <- gen;
    t.stamps.(i) <- t.epoch

  let grow t =
    let keys = t.keys and leaves = t.leaves and gens = t.gens in
    let stamps = t.stamps and epoch = t.epoch in
    let slots = 2 * Array.length keys in
    t.keys <- Array.make slots 0;
    t.leaves <- Array.make slots 0;
    t.gens <- Array.make slots 0;
    t.stamps <- Array.make slots dead;
    Array.iteri (fun i k -> if stamps.(i) = epoch then set t (slot t k) k leaves.(i) gens.(i)) keys

  (* Bind [k], absent or stale, to a leaf walked under [gen]. *)
  let add t k leaf gen =
    let i = slot t k in
    if found t i k then set t i k leaf gen
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      grow t;
      set t (slot t k) k leaf gen;
      t.size <- t.size + 1
    end
    else begin
      set t i k leaf gen;
      t.size <- t.size + 1
    end

  (* Vacate slot [i] and shift back every later entry of its probe run
     that may move into the hole (its home is not cyclically within
     (hole, j]), so no lookup ever stops short of its key. *)
  let rec shift t hole j =
    let j = (j + 1) land (Array.length t.keys - 1) in
    if not (live t j) then t.stamps.(hole) <- dead
    else
      let h = home t t.keys.(j) in
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then shift t hole j
      else begin
        set t hole t.keys.(j) t.leaves.(j) t.gens.(j);
        shift t j j
      end

  let remove_at t i =
    shift t i i;
    t.size <- t.size - 1

  let flush_all t =
    t.epoch <- t.epoch + 1;
    t.size <- 0;
    t.flushes <- t.flushes + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_flush tr;
        if Trace.recording tr then Trace.emit tr Trace.Tlb_flush_all

  let invlpg t ~cr3 va =
    let k = key ~cr3 va in
    let i = slot t k in
    if found t i k then remove_at t i;
    t.invlpgs <- t.invlpgs + 1;
    match t.tracer with
    | None -> ()
    | Some tr ->
        Trace.note_invlpg tr;
        if Trace.recording tr then Trace.emit tr (Trace.Tlb_invlpg { va })

  let stats t = { hits = t.hits; misses = t.misses; flushes = t.flushes; invlpgs = t.invlpgs }
  let size t = t.size
end

(* Neither a hit nor a miss allocates or raises: the cached leaf is an
   int, and so is the outcome of a fill. *)
let walk_cached tlb mem ~cr3 va =
  let key = Tlb.key ~cr3 va in
  let i = Tlb.slot tlb key in
  let gen = Phys_mem.generation mem in
  if Tlb.found tlb i key && tlb.Tlb.gens.(i) = gen then begin
    tlb.Tlb.hits <- tlb.Tlb.hits + 1;
    (match tlb.Tlb.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_hit);
    tlb.Tlb.leaves.(i)
  end
  else begin
    tlb.Tlb.misses <- tlb.Tlb.misses + 1;
    (match tlb.Tlb.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Tlb_miss);
    let o = walk_outcome ?tracer:tlb.Tlb.tracer mem ~cr3 va in
    (* faults are never cached, like real hardware *)
    if o >= 0 then begin
      if tlb.Tlb.size >= tlb.Tlb.capacity then Tlb.flush_all tlb;
      Tlb.add tlb key o gen
    end;
    o
  end

(* --- remap windows -------------------------------------------------------

   A scan through a remap window does three accesses per frame: a store
   of the frame's leaf at the slot VA (a TLB hit), an invlpg of the
   window VA, and a read through the window VA (a miss and a full walk).
   While the slot store is the only store between frames, and the slot
   is the L1 entry the window's walk ends at and none of the entries
   above it, levels 4..2 of that walk cannot change: [remap] walks them
   once and [remap_step] replays a frame's TLB side from them. *)

type remap = {
  r_tlb : Tlb.t;
  r_mem : Phys_mem.t;
  r_gen : int;  (* the generation both cached translations were walked under *)
  r_slot_key : int;
  r_slot : outcome;  (* the slot's cached leaf, which the store goes through *)
  r_slot_maddr : int;
  r_window_key : int;
  r_perms : int;  (* the writable/user/exec bits levels 4..2 of the window walk leave *)
}

(* Per-access effects a fast-forwarded frame would hide: ring records
   while the tracer records, [Pt_walk] observations while a provenance
   shadow is attached. *)
let observed tlb mem =
  (match tlb.Tlb.tracer with Some tr -> Trace.recording tr | None -> false)
  || Option.is_some (Phys_mem.provenance mem)

(* The cached, current-generation leaf of [key], or -1. *)
let resident tlb key gen =
  let i = Tlb.slot tlb key in
  if Tlb.found tlb i key && tlb.Tlb.gens.(i) = gen then tlb.Tlb.leaves.(i) else -1

let step_maddr s = (s.table_mfn lsl Addr.page_shift) + (8 * s.index)

(* The permission bits an entry above the leaf leaves of [perms]. *)
let upper_perms perms s =
  let perms = if Pte.test Pte.Rw s.entry then perms else perms land lnot writable_bit in
  let perms = if Pte.test Pte.User s.entry then perms else perms land lnot user_bit in
  if Pte.test Pte.Nx s.entry then perms land lnot exec_bit else perms

let remap tlb mem ~cr3 ~slot ~window =
  let gen = Phys_mem.generation mem in
  let slot_key = Tlb.key ~cr3 slot and window_key = Tlb.key ~cr3 window in
  let so = resident tlb slot_key gen in
  if slot_key = window_key || observed tlb mem || so < 0 || so land writable_bit = 0 then None
  else
    let slot_maddr = (outcome_mfn so lsl Addr.page_shift) lor Addr.page_offset slot in
    (* four steps: L4..L2 present, no superpage *)
    match walk_path mem ~cr3 window with
    | [ l4; l3; l2; l1 ]
      when step_maddr l1 = slot_maddr
           && List.for_all (fun s -> step_maddr s <> slot_maddr) [ l4; l3; l2 ] ->
        Some
          {
            r_tlb = tlb;
            r_mem = mem;
            r_gen = gen;
            r_slot_key = slot_key;
            r_slot = so;
            r_slot_maddr = slot_maddr;
            r_window_key = window_key;
            r_perms =
              List.fold_left upper_perms (writable_bit lor user_bit lor exec_bit) [ l4; l3; l2 ];
          }
    | _ -> None

let remap_slot_maddr r = r.r_slot_maddr

let remap_step r ~leaf =
  let tlb = r.r_tlb and mem = r.r_mem in
  let mfn = (leaf lsr Addr.page_shift) land mfn_bits in
  if
    leaf < 0
    || leaf land 1 = 0
    || (not (Phys_mem.is_valid_mfn mem mfn))
    || Phys_mem.generation mem <> r.r_gen
    || observed tlb mem
    || resident tlb r.r_slot_key r.r_gen <> r.r_slot
  then -1
  else
    let j = Tlb.slot tlb r.r_window_key in
    if not (Tlb.found tlb j r.r_window_key) then -1
    else begin
      (* the store's hit; the invlpg; the read's miss, whose four-level
         walk re-adds the window's leaf where the invlpg removed it (it
         cannot flush: the removal left the table below capacity) *)
      tlb.Tlb.hits <- tlb.Tlb.hits + 1;
      tlb.Tlb.invlpgs <- tlb.Tlb.invlpgs + 1;
      tlb.Tlb.misses <- tlb.Tlb.misses + 1;
      (match tlb.Tlb.tracer with
      | None -> ()
      | Some tr ->
          Trace.charge tr Vclock.Tlb_hit;
          Trace.note_invlpg tr;
          Trace.charge tr Vclock.Tlb_miss;
          Trace.charge_n tr Vclock.Page_walk_step 4);
      let perms = if leaf land 0x2 = 0 then r.r_perms land lnot writable_bit else r.r_perms in
      let perms = if leaf land 0x4 = 0 then perms land lnot user_bit else perms in
      tlb.Tlb.leaves.(j) <- (mfn lsl 4) lor perms;
      tlb.Tlb.gens.(j) <- r.r_gen;
      mfn
    end

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
