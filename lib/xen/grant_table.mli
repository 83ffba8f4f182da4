(** Grant tables: the mechanism by which one domain lends pages to
    another (or to a driver domain).

    Both grant-table versions are implemented, including the v2 status
    frames whose lifecycle is the subject of XSA-387 (status pages must
    be returned to Xen when a guest switches from v2 back to v1). The
    grant substrate supports the "Keep Page Reference" intrusion model
    of §IV-B. *)

type gt_version = V1 | V2

type entry = private {
  mutable permit : bool;  (** access currently granted *)
  mutable grantee : int;  (** domain allowed to map *)
  mutable g_mfn : Addr.mfn;
  mutable readonly : bool;
  mutable in_use : int;  (** live mappings through this grant *)
}

type map_record = {
  handle : int;
  mapper : int;
  granter : int;
  gref : int;
  mapped_mfn : Addr.mfn;
  map_readonly : bool;
}

type t

val create : grefs:int -> t
val version : t -> gt_version
val entry : t -> int -> entry option
val status_frames : t -> Addr.mfn list

(** {1 The memory-backed v1 table}

    In real Xen the grant table {e is} memory: Xen-owned frames the
    guest maps and writes 8-byte entries into; the hypervisor parses
    them when another domain maps a grant. [gnttab_setup_table]
    installs such frames ({!set_shared}); from then on {!map_memory}
    reads the wire entries — and an arbitrary-write primitive aimed at
    those frames forges grants that were never made (the
    Corrupt-a-Page-Reference intrusion model). *)

module Wire : sig
  type wire_entry = { w_flags : int; w_domid : int; w_gfn : int }

  val entry_size : int
  (** 8 bytes: flags u16, domid u16, gfn u32 (little endian). *)

  val gtf_permit_access : int
  val gtf_readonly : int
  val gtf_in_use : int
  val read : Frame.t -> int -> wire_entry
  val write : Frame.t -> int -> wire_entry -> unit
end

val shared_frames : t -> Addr.mfn list
val set_shared : t -> Addr.mfn list -> unit
val memory_backed : t -> bool

val map_memory :
  t ->
  mem:Phys_mem.t ->
  granter:int ->
  mapper:int ->
  gref:int ->
  gfn_to_mfn:(int -> Addr.mfn option) ->
  (map_record, Errno.t) result
(** Parse the wire entry for [gref] from the shared frames, validate
    it, mark it in use (in memory) and record the mapping. *)

val unmap_memory : t -> mem:Phys_mem.t -> handle:int -> (unit, Errno.t) result

val set_version :
  t -> alloc:(unit -> Addr.mfn) -> release:(Addr.mfn -> unit) -> gt_version ->
  (unit, Errno.t) result
(** Switching to v2 allocates status frames from the hypervisor;
    switching back to v1 releases them — the operation whose buggy
    variants motivate the grant-table intrusion model. Fails with
    [EBUSY] while grants are mapped. *)

val grant_access :
  t -> gref:int -> grantee:int -> mfn:Addr.mfn -> readonly:bool -> (unit, Errno.t) result

val end_access : t -> gref:int -> (unit, Errno.t) result
(** Fails with [EBUSY] while the grant is mapped. *)

val map : t -> granter:int -> mapper:int -> gref:int -> (map_record, Errno.t) result
(** Validate and record a foreign mapping; the mapper then installs a
    PTE for [mapped_mfn] via the normal, validated MMU path. *)

val unmap : t -> handle:int -> (unit, Errno.t) result
val mappings : t -> map_record list

val next_handle : t -> int
(** The handle the next mapping will get. *)

val find_mapping : t -> handle:int -> map_record option

val deep_copy : t -> t
(** Structural copy (for hypervisor checkpointing), with no changes
    recorded. *)

val checkpoint : t -> t
(** A {!deep_copy} of [t] to {!restore_into} [t] later: from here on,
    [t] records the entries (and the rest of the table) its mutators
    change, which is what {!restore_into} replays. Only the latest
    checkpoint of a table can be restored into it. *)

val restore_into : t -> from:t -> unit
(** Make [t] equal to [from], its latest {!checkpoint} (or a
    {!deep_copy} of it), without rebuilding it: the entries changed
    since are copied field by field, and the version, frames, maptrack
    and handle counter only if any of them changed. An unchanged table
    costs two checks. [from] is only read. Raises [Invalid_argument] if
    the tables differ in size. *)
