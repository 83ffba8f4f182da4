(** A Xen domain's hypervisor-side state.

    Guest-kernel structures (processes, filesystem, console) live in the
    guest library; this record is what Xen itself knows: identity,
    privilege, the P2M map, the page-table root and the pages the domain
    builder handed over. *)

type p2m
(** The pfn -> mfn map. Abstract, so every write goes through
    {!set_p2m}, which marks the slot for {!restore_into} (a write that
    skipped the mark would outlive the next restore) and keeps the
    count {!populated_count} reads: the number of slots holding a page.
    Copies and restores carry the count with the slots. Read it with
    {!mfn_of_pfn}. *)

type t = {
  id : int;
  name : string;  (** also used as the guest hostname in transcripts *)
  privileged : bool;  (** true for dom0 *)
  owner : Phys_mem.owner;  (** [Dom id], built once: see {!owned} *)
  p2m : p2m;  (** pfn -> mfn; see {!mfn_of_pfn} *)
  mutable l4_mfn : Addr.mfn;  (** page-table root (start_info.pt_base) *)
  mutable pt_pages : Addr.mfn list;  (** builder-installed table pages *)
  start_info_pfn : Addr.pfn;
  vdso_pfn : Addr.pfn;
  grant : Grant_table.t;
  events : Event_channel.t;
  mutable dom_crashed : bool;
}

val make :
  id:int -> name:string -> privileged:bool -> max_pfn:int ->
  start_info_pfn:Addr.pfn -> vdso_pfn:Addr.pfn -> t

val deep_copy : t -> t
(** Structural copy — P2M, grant table and event channels included —
    so a checkpointed domain is immune to later mutation. No changes
    are recorded in the copy. *)

val checkpoint : t -> t
(** A {!deep_copy} of [t] to {!restore_into} [t] later. From here on
    [t] records the P2M slots, grant entries and ports it changes (see
    {!Grant_table.checkpoint}, {!Event_channel.checkpoint}), which is
    what {!restore_into} replays; only the latest checkpoint of a
    domain can be restored into it. *)

val restore_into : t -> from:t -> unit
(** Roll the live domain [t] back in place to [from], its latest
    {!checkpoint} (or a {!deep_copy} of it): the P2M slots, grant
    entries and ports changed since are copied back, so [t] ends up
    structurally equal to [from] while keeping its identity, and a
    domain that changed nothing costs four checks. [from] is
    only read. Raises [Invalid_argument] unless both have the same id
    and P2M size. *)

val max_pfn : t -> int
val mfn_of_pfn : t -> Addr.pfn -> Addr.mfn option
(** [None] for a pfn with no page or out of range; allocates nothing. *)

val pfn_of_mfn : t -> Addr.mfn -> Addr.pfn option
(** Linear scan of the P2M; Xen proper uses the M2P, which the
    hypervisor maintains — this is a testing aid. *)

val set_p2m : t -> Addr.pfn -> Addr.mfn option -> unit
val populated_pfns : t -> Addr.pfn list

val populated_count : t -> int
(** [List.length (populated_pfns t)] in O(1): the count {!set_p2m}
    keeps. *)

val owned : t -> Phys_mem.owner
(** [Phys_mem.Dom id], the same value every call: allocates nothing. *)

val kernel_vaddr_of_pfn : Addr.pfn -> Addr.vaddr
(** Where the builder maps guest page [pfn] in the PV kernel area. *)

val pp : Format.formatter -> t -> unit
