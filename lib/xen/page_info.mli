(** Per-frame hypervisor bookkeeping: type and reference counts. The
    frame's owner is {!Phys_mem.owner}, the one owner store.

    This is Xen's [struct page_info] discipline: a frame has exactly one
    type at a time (writable data or page table of a given level), the
    type is pinned by a use count, and page-table validation promotes a
    frame to a table type only when it can take the type exclusively.

    The type system is what hypercall validation enforces — and what the
    exploits and the injector bypass when they plant raw bytes. The
    divergence between these counts and the actual page-table bytes in
    memory is precisely an {e erroneous state}.

    {b Layout.} The table is one flat [int array] indexed by mfn: a
    frame's {!ptype} code, [validated], [pinned] and both counts packed
    in one unboxed int. A boot is one fill, a checkpoint or a fork one
    copy, and no record of a frame leaves this module: the fields are
    read through the accessors below.

    {b Every writer touches.} Each function that changes a frame adds
    it to the touched set itself, so {!restore} and the scans cached at
    a checkpoint (which ask {!touched}) see every write. An mfn outside
    the table, or a count taken below 0 or above 2{^29} - 1, raises
    [Invalid_argument] before anything changes. *)

type ptype =
  | PGT_none  (** no type yet *)
  | PGT_writable  (** plain data, guest-writable *)
  | PGT_l1
  | PGT_l2
  | PGT_l3
  | PGT_l4
  | PGT_seg  (** descriptor-table page *)

type t

val create : frames:int -> t

val table_level : ptype -> int option
(** [Some 1..4] for page-table types. *)

val ptype_of_level : int -> ptype

val ptype_code : ptype -> int
(** A stable small-integer encoding (the one trace [Page_type] records
    carry). *)

(** {1 Reads}

    A frame's type (it stays after its last use is dropped), the uses of
    that type, its general references (existence), whether its table
    contents were validated, and whether the guest pinned the type
    (vcpu pagetable). *)

val ptype : t -> Addr.mfn -> ptype
val type_count : t -> Addr.mfn -> int
val ref_count : t -> Addr.mfn -> int
val validated : t -> Addr.mfn -> bool
val pinned : t -> Addr.mfn -> bool

val live_table : t -> Addr.mfn -> bool
(** A table type with [type_count > 0]: a frame guest mappings may not
    make writable, and that the monitor and VMI count as exposed. *)

val counts_consistent : t -> bool
(** [type_count = 0] implies no pin on every frame — the invariant
    checked by property tests (the counts cannot go negative). *)

(** {1 Writes} *)

val allocated : t -> Addr.mfn -> unit
(** [mfn] was just handed out by the allocator: one general reference,
    no type, not validated, not pinned. *)

val freed : t -> Addr.mfn -> unit
(** [mfn] goes back to the allocator: no references, not validated, not
    pinned. The type and its (zero) count stay. *)

val get_page : t -> Addr.mfn -> unit
(** Take a general reference; {!put_page} drops one. *)

val put_page : t -> Addr.mfn -> unit

val get_page_type : t -> Addr.mfn -> ptype -> (unit, Errno.t) result
(** Take a typed reference: succeeds when the frame already has this
    type, or has no live type (count 0) and can be promoted (then the
    new type starts unvalidated). A frame whose current type is in use
    by something else is refused — the rule that keeps page tables
    unwritable. *)

val put_page_type : t -> Addr.mfn -> unit
(** Drop a typed reference; the last one clears [validated] and
    [pinned]. *)

val set_type : t -> Addr.mfn -> ptype -> count:int -> unit
(** Assign the type and its use count outright, leaving the flags (a
    promotion's rollback, the builder's tables, a helper's release). *)

val set_validated : t -> Addr.mfn -> bool -> unit
val set_pinned : t -> Addr.mfn -> bool -> unit

(** {1 Changes since the checkpoint} *)

val touched : t -> Addr.mfn -> bool
(** Whether [mfn]'s fields may have changed since the last {!checkpoint}
    or {!restore}, in O(1): false means they certainly equal the
    checkpointed ones — the validity test for cached scans that
    consulted them. False for an mfn outside the table. *)

val any_touched : t -> bool
(** Whether any frame is {!touched}, in O(1). *)

(** {1 Checkpointing} *)

type checkpoint

val checkpoint : t -> checkpoint
(** A copy of the column; clears the touched set. *)

val restore : t -> checkpoint -> unit
(** Copy the touched frames back, then clear the touched set. *)

val of_checkpoint : checkpoint -> t
(** A complete fresh instance holding the checkpointed state — the
    forked-testbed construction path. ({!restore} cannot initialize a
    fresh instance: it only replays the target's own touched set, which
    is empty after {!create}.) The checkpoint is read, never aliased, so
    one checkpoint can seed many forks. *)
