(** The 4-level page walker.

    The walker decodes page-table bytes exactly as the MMU would: it
    never consults hypervisor bookkeeping, so a forged entry written by
    an exploit (or by the intrusion injector) translates just like a
    legitimate one. *)

type access_kind = Read | Write | Exec

type fault_reason =
  | Not_present of int  (** walk stopped at this level (4..1) *)
  | Write_to_readonly
  | User_access_to_supervisor
  | Nx_violation
  | Non_canonical
  | Layout_denied of Layout.region
      (** guest-privilege access into a region the hypervisor keeps
          unreachable (models the hardened address space) *)
  | Bad_physical of Addr.mfn
      (** the walk reached a present leaf whose frame lies outside
          installed RAM — a forged PTE; real hardware aborts the bus
          access, so the walk faults instead of the simulator *)

type fault = { fault_vaddr : Addr.vaddr; fault_kind : access_kind; reason : fault_reason }

type step = {
  level : int;  (** 4..1 *)
  table_mfn : Addr.mfn;  (** page-table page holding the entry *)
  index : int;  (** entry index within the table *)
  entry : Pte.t;
}

type translation = {
  t_maddr : Addr.maddr;
  writable : bool;  (** AND of RW along the path *)
  user : bool;  (** AND of US along the path *)
  executable : bool;
  superpage : bool;  (** terminated by a PSE entry at L2 *)
  path : step list;  (** outermost (L4) first *)
}

(** What a walk ends at, and all the software TLB caches: the page the
    address falls in plus the permission bits accumulated along the way.
    A [translation] without its byte offset and path. *)
type leaf = {
  l_mfn : Addr.mfn;  (** the 4 KiB frame the address falls in *)
  l_writable : bool;
  l_user : bool;
  l_executable : bool;
  l_superpage : bool;
}

val leaf_maddr : leaf -> Addr.vaddr -> Addr.maddr
(** The machine address of [va]'s byte within the leaf's page. *)

type outcome = private int
(** A walk's outcome packed into an immediate int, so the TLB stores
    and returns it without allocating: a leaf (non-negative) or the
    fault that stopped the walk (negative). *)

val outcome_fault : outcome -> fault_reason option
(** [None] for a leaf; the fault ([Not_present] or [Bad_physical])
    otherwise. *)

val outcome_mfn : outcome -> Addr.mfn
(** A leaf's frame. *)

val outcome_leaf : outcome -> (leaf, fault_reason) result
(** The outcome unpacked. *)

val denied : kind:access_kind -> user:bool -> outcome -> fault_reason option
(** The permission check {!translate} runs on a leaf: [Some] the fault
    an access of [kind] (at guest privilege when [user]) takes, [None]
    when it may proceed. *)

val walk :
  Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> (translation, fault_reason) result
(** Pure translation: decode entries from physical memory, no permission
    check beyond presence. An L2 entry with [Pse] terminates the walk as
    a 2 MiB superpage whose base frame is the entry's MFN rounded down to
    a 512-frame boundary (hardware alignment). {!walk}, {!walk_path} and
    the TLB's fills are one walker; only these two record the path. *)

val walk_path : Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> step list
(** The steps actually decoded, even when the walk faults — the audit
    primitive used to certify injected erroneous states. *)

val l1_entry_maddr : Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> int
(** The machine address of the level-1 entry that maps [va] (the L1 step
    of {!walk_path}), found without building the path; -1 when the walk
    stops before level 1, at an entry not present or a superpage. Reads
    the tables as {!walk_path} does (provenance observations included). *)

val translate :
  Phys_mem.t ->
  cr3:Addr.mfn ->
  kind:access_kind ->
  user:bool ->
  Addr.vaddr ->
  (translation, fault) result
(** Full check: canonicality, walk, then RW/US/NX permissions. [user]
    selects guest-privilege semantics. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_fault_reason : Format.formatter -> fault_reason -> unit

(** {1 Software TLB}

    A walk cache mirroring what the hardware TLB keeps per address
    space: the leaf a walk ends at, as its packed {!outcome} — page
    frame and accumulated permissions — never the walk path. Its key is one int, cr3 packed above the 36-bit
    virtual page number (VA bits 12..47, injective on canonical
    addresses). The model is faithful in both directions: a hit equals a
    fresh walk on every field it caches (and auto-invalidates when
    {!Phys_mem.generation} moves, i.e. when frames are recycled), while a
    PTE rewritten {e without} the architectural invalidation ([invlpg] /
    CR3 reload) keeps serving the stale translation — real XSA exploits
    interact with exactly that window. A cr3 above 2{^26}-1 cannot be
    packed: every TLB operation on one raises [Invalid_argument] rather
    than alias another address space. *)

module Tlb : sig
  type t

  type stats = { hits : int; misses : int; flushes : int; invlpgs : int }

  val create : ?capacity:int -> unit -> t
  (** Default capacity 4096 cached pages; on overflow the whole cache is
      flushed (a coarse but faithful capacity eviction). *)

  val set_tracer : t -> Trace.t -> unit
  (** Report flushes and invlpgs to a tracer (counters always, ring
      records while it is recording), and charge TLB/page-walk virtual
      time against its clock. *)

  val tracer : t -> Trace.t option
  (** The tracer installed by {!set_tracer}, if any — the CPU charges
      its memory-access costs through the same handle. *)

  val flush_all : t -> unit
  (** CR3 load / global flush. *)

  val invlpg : t -> cr3:Addr.mfn -> Addr.vaddr -> unit
  (** Drop one page's cached translation in address space [cr3]. *)

  val stats : t -> stats
  val size : t -> int
end

val walk_cached : Tlb.t -> Phys_mem.t -> cr3:Addr.mfn -> Addr.vaddr -> outcome
(** {!walk} through the cache. Faults are never cached. Neither a hit
    nor a miss allocates or raises. Permission checks are the caller's,
    with {!denied} on the cached bits, so a hit faults exactly when a
    fresh {!translate} would. *)

(** {1 Remap windows}

    A scan through a remap window maps one frame after another under a
    fixed window VA by storing the frame's leaf PTE at a slot VA, then
    [invlpg]s the window VA and reads through it. *)

type remap
(** The window's walk above its L1 entry, done once. It stays true
    while no store but the slot's own reaches the window's L4, L3 or L2
    entry, which the checks below guarantee for the slot's stores. *)

val remap :
  Tlb.t -> Phys_mem.t -> cr3:Addr.mfn -> slot:Addr.vaddr -> window:Addr.vaddr -> remap option
(** [None] unless: the two VAs lie on different pages; the slot is
    TLB-resident and writable under the current generation; the
    window's walk ends at an L1 entry (no superpage), and that entry is
    the machine address the slot translates to and none of the entries
    above it; no trace records and no provenance shadow
    is attached. VAs are taken as given (canonical), and the address
    space's layout filter is the caller's. *)

val remap_slot_maddr : remap -> int
(** The machine address a slot store writes. *)

val remap_step : remap -> leaf:int -> Addr.mfn
(** One frame's TLB side of the three accesses, when [leaf] (the PTE's
    bits 0..62; NX clear) is present and names a frame in RAM, the
    generation has not moved, no trace records and no provenance shadow
    is attached, the slot's leaf is still resident and unchanged, and
    the window's leaf is resident: the store's TLB hit, the [invlpg]
    and the read's miss with its four-level walk — stats, tracer
    counters and virtual-time charges — and the window's cached leaf
    replaced by [leaf]'s. Returns the frame [leaf] names, or -1, having
    done nothing, when a check fails. Allocates nothing. *)
