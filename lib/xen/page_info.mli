(** Per-frame hypervisor bookkeeping: type and reference counts. The
    frame's owner is {!Phys_mem.owner}, the one owner store.

    This is Xen's [struct page_info] discipline: a frame has exactly one
    type at a time (writable data or page table of a given level), the
    type is pinned by a use count, and page-table validation promotes a
    frame to a table type only when it can take the type exclusively.

    The type system is what hypercall validation enforces — and what the
    exploits and the injector bypass when they plant raw bytes. The
    divergence between these counts and the actual page-table bytes in
    memory is precisely an {e erroneous state}. *)

type ptype =
  | PGT_none  (** no type yet *)
  | PGT_writable  (** plain data, guest-writable *)
  | PGT_l1
  | PGT_l2
  | PGT_l3
  | PGT_l4
  | PGT_seg  (** descriptor-table page *)

type info = {
  mutable ptype : ptype;
  mutable type_count : int;  (** uses of the current type *)
  mutable ref_count : int;  (** general references (existence) *)
  mutable validated : bool;  (** table contents were validated *)
  mutable pinned : bool;  (** guest pinned the type (vcpu pagetable) *)
}

type t

val create : frames:int -> t
val get : t -> Addr.mfn -> info
val table_level : ptype -> int option
(** [Some 1..4] for page-table types. *)

val ptype_of_level : int -> ptype

val ptype_code : ptype -> int
(** A stable small-integer encoding (the one trace [Page_type] records
    carry). *)

val get_page : t -> Addr.mfn -> unit
(** Take a general reference. *)

val put_page : t -> Addr.mfn -> unit

val get_page_type : t -> Addr.mfn -> ptype -> (unit, Errno.t) result
(** Take a typed reference: succeeds when the frame already has this
    type, or has no live type (count 0) and can be promoted. A frame
    whose current type is in use by something else is refused — the rule
    that keeps page tables unwritable. *)

val put_page_type : t -> Addr.mfn -> unit

val counts_consistent : t -> bool
(** Every frame has non-negative counts and [type_count = 0] implies no
    pin — the invariant checked by property tests. *)

(** {1 Changes since the checkpoint} *)

val touch : t -> Addr.mfn -> unit
(** Record an out-of-band mutation of [mfn]'s info. Call sites that
    assign [info] fields directly (allocation, release, promotion) must
    call this so {!restore} knows to replay the frame and {!touched}
    reports it. Every mutator above calls it too. *)

val allocated : t -> Addr.mfn -> unit
(** [mfn] was just handed out by the allocator: one general reference,
    no type, not validated, not pinned. Touches the frame. *)

val touched : t -> Addr.mfn -> bool
(** Whether [mfn]'s info may have changed since the last {!checkpoint}
    or {!restore}, in O(1): false means it certainly equals the
    checkpointed info — the validity test for cached scans that
    consulted it. False for an mfn outside the table. *)

val any_touched : t -> bool
(** Whether any frame is {!touched}, in O(1). *)

(** {1 Checkpointing} *)

type checkpoint

val checkpoint : t -> checkpoint

val restore : t -> checkpoint -> unit
(** Restore by field assignment, so [info] records stay aliased from
    wherever they are held. *)

val of_checkpoint : checkpoint -> t
(** A complete fresh instance holding the checkpointed state — the
    forked-testbed construction path. ({!restore} cannot initialize a
    fresh instance: it only replays the target's own touched set, which
    is empty after {!create}.) The checkpoint is read, never aliased, so
    one checkpoint can seed many forks. *)
