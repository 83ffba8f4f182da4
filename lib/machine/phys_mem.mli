(** Simulated host physical memory: a finite array of 4 KiB frames.

    Ownership here is only an allocation tag (who asked for the frame);
    access control is enforced elsewhere (page tables + hypervisor
    validation). An attacker holding a forged mapping can therefore read
    and write frames they do not own, which is the whole point.

    Beyond raw storage, this module carries the campaign engine's two
    fast-reset primitives: a frozen template as the one kind of
    baseline, with a dirty-frame set, so a testbed resets in O(frames
    touched) by sharing those frames with the template again instead of
    rebuilding everything; and a generation counter that lets cached
    translations (the software TLB) self-invalidate whenever frames are
    recycled. *)

type owner =
  | Free
  | Xen  (** owned by the hypervisor *)
  | Dom of int  (** owned by domain [id] (non-negative) *)

type t

exception Bad_maddr of Addr.maddr
(** Raised on access outside the installed physical memory. *)

val create : frames:int -> t
(** Fresh memory of [frames] zeroed frames, all [Free]. Every frame is a
    copy-on-write alias of one shared all-zero frame, which the first
    content write to a frame replaces with a private one: a frame never
    written costs no storage. *)

val total_frames : t -> int

val frame : t -> Addr.mfn -> Frame.t
(** Raw frame access. The frame is conservatively marked dirty, since
    the caller receives a mutable view. Use {!frame_ro} on provably
    read-only paths. *)

val frame_ro : t -> Addr.mfn -> Frame.t
(** Like {!frame} but does not mark the frame dirty. The caller promises
    not to write through the returned view. *)

val pt_frame : t -> Addr.mfn -> index:int -> Frame.t
(** The frame a page walk reads entry [index] (0..511) of, the read
    observed as a [Pt_walk] consumption. A table frame outside installed
    RAM reads as all zeroes (every entry not present), as an aborted bus
    read would. The caller promises not to write through the view. *)

val frame_hash : t -> Addr.mfn -> int64
(** {!Fnv.bytes} of the frame via the read-only path — the VMI
    integrity primitive. Never marks the frame dirty. *)

(** {1 Allocation} *)

val alloc : t -> owner -> Addr.mfn
(** Allocate the lowest free frame, zeroed. Raises [Failure] when memory
    is exhausted and [Invalid_argument] when asked to allocate [Free]. *)

val lowest_bit : int -> int
(** The index of the lowest set bit of a non-zero int, in constant time:
    the free-bitmap step of {!alloc}. *)

val claim : t -> owner -> int -> Addr.mfn array
(** [claim t o n] takes the [n] frames [n] calls of {!alloc} would, in
    one pass over the free bitmap, and returns them, lowest first, in
    the first [n] slots of an array the memory reuses: it holds them
    until the next [claim]. Raises [Failure] before taking any frame
    when fewer than [n] are free. *)

val free : t -> Addr.mfn -> unit

val owner : t -> Addr.mfn -> owner
(** The frame's owner. Frames are the one owner store of the machine:
    the hypervisor's per-frame bookkeeping keeps none of its own. *)

val is_owner : t -> Addr.mfn -> owner -> bool
(** [is_owner t mfn o] is [owner t mfn = o] without building the owner:
    owners are stored as ints, so the check allocates nothing. *)

val set_owner : t -> Addr.mfn -> owner -> unit

val free_frames : t -> int
(** O(1): the allocator maintains a live count. *)

val frames_owned_by : t -> owner -> Addr.mfn list
val is_valid_mfn : t -> Addr.mfn -> bool

(** {1 Dirty tracking and baseline reset} *)

val generation : t -> int
(** Bumped whenever a cached physical translation may have gone stale:
    on [free] (frame recycling) and on {!reset_to_baseline}. The
    software TLB compares this against the generation each entry was
    filled under. *)

val dirty_count : t -> int
(** Frames touched since the last {!capture_baseline} or
    {!reset_to_baseline} (or creation), in O(1). The set is a
    preallocated int stack, so marking a frame allocates nothing. *)

val is_dirty : t -> Addr.mfn -> bool
(** Whether [mfn] is one of the frames {!dirty_count} counts, in O(1).
    False for an invalid frame, which nothing can touch. A
    {!Scan_memo} node is valid while none of the frames it read is
    dirty. *)

val baseline_epoch : t -> int
(** Bumped on every {!capture_baseline}; unchanged by
    {!reset_to_baseline} (reset returns to the {e same} baseline).
    Caches anchored to a baseline carry this to detect re-captures. *)

val capture_baseline : t -> unit
(** Declare the current contents the baseline: freeze a snapshot of the
    memory's metadata (frame pointers, which share the frames, owners,
    free bitmap and scrubbed flags; no frame bytes are copied) and fork
    the memory from it in place, every frame copy-on-write against the
    snapshot. From then on the memory resets exactly as a {!fork} of
    that snapshot does. Recapturing replaces the baseline (on a {!fork},
    it replaces the template; other forks of that template are
    untouched). Raises [Invalid_argument] on a frozen template and while
    a provenance shadow is attached: taint is tracked from a captured
    baseline on, never across one. *)

val reset_to_baseline : t -> int
(** Restore every frame (contents and ownership) touched since the
    baseline from its frozen template, in O(dirty) pointer stores and
    with no bytes copied: each frame written since goes back to aliasing
    the template's, and its private storage is kept for the next write
    to reuse. Afterwards [shared_frames t = total_frames t]. Returns the
    number of frames restored. Raises [Invalid_argument] if there is no
    baseline (neither captured nor forked). *)

(** {1 Copy-on-write forking}

    The warm-pool primitive: building a testbed once, freezing its
    memory and forking it hands every new shard (or matrix cell) a
    testbed in O(metadata) instead of a full rebuild. Frozen templates
    are immutable — every mutation path raises — so one template can be
    shared, read-only, by forks running on concurrent domains. *)

val freeze : t -> unit
(** Declare the memory an immutable fork template. Requires a captured
    baseline with no divergence ([dirty_count t = 0]); after freezing,
    any mutation raises [Invalid_argument]. Irreversible. *)

val fork : t -> t
(** [fork template] is a new memory whose frames physically alias the
    frozen template's. The first content write to a frame detaches it
    with a private copy; frames never written are never copied, and
    {!reset_to_baseline} skips still-shared frames. The fork's baseline
    is the template itself (same {!baseline_epoch}), the kind of
    baseline {!capture_baseline} makes too: dirtying a frame saves
    nothing, and {!reset_to_baseline} points each written frame back at
    the template's and keeps its storage for the next write's copy. So
    a fork holds at most the private frames one trial writes, and
    allocates none once it has held that many. The fork starts with no
    such storage of its own. Raises [Invalid_argument] unless
    [template] is frozen. *)

val shared_frames : t -> int
(** Frames not content-written since the baseline, still physically
    shared with the template or, in a memory from {!create} that has
    none, with the zero frame (equals [total_frames] right after
    {!create}, {!fork}, {!capture_baseline} or {!reset_to_baseline}). *)

(** {1 Access by frame and offset}

    The CPU's access path: it resolves a guest address to a frame and an
    offset once, then moves bytes with no machine address in between.
    Each access must lie within frame [mfn] ([0 <= off], [off + len <=
    page_size]); one that does not raises [Bad_maddr] at its machine
    address. Writes dirty and taint exactly as the machine-address
    writes below do. *)

val get_u64 : t -> Addr.mfn -> int -> int64
val set_u64 : t -> Addr.mfn -> int -> int64 -> unit

val set_u64_of_int : t -> Addr.mfn -> int -> int -> unit
(** [set_u64_of_int t mfn off v] is [set_u64 t mfn off (Int64.of_int v)]
    without boxing the word. *)

val blit_out : t -> Addr.mfn -> int -> bytes -> int -> int -> unit
(** [blit_out t mfn off buf pos len] copies [len] frame bytes from [off]
    into [buf] at [pos]. *)

val blit_in : t -> bytes -> int -> Addr.mfn -> int -> int -> unit
(** [blit_in t buf pos mfn off len]: the store counterpart. *)

(** {1 Byte access by machine address}

    These primitives cross frame boundaries transparently. *)

val read_u8 : t -> Addr.maddr -> int
val write_u8 : t -> Addr.maddr -> int -> unit
val read_u64 : t -> Addr.maddr -> int64
val write_u64 : t -> Addr.maddr -> int64 -> unit
val read_bytes : t -> Addr.maddr -> int -> bytes
val write_bytes : t -> Addr.maddr -> bytes -> unit
val write_string : t -> Addr.maddr -> string -> unit

val read_into : t -> Addr.maddr -> bytes -> int -> int -> unit
(** [read_into t ma buf pos len] blits [len] bytes starting at [ma] into
    [buf] at [pos], one frame-sized chunk at a time. *)

val write_from : t -> Addr.maddr -> bytes -> int -> int -> unit
(** [write_from t ma buf pos len]: the bulk store counterpart. *)

(** {1 Provenance}

    An optional byte-granular taint shadow (see {!Provenance}). When
    attached, every byte-path write ({!write_u8}, {!write_u64},
    {!write_from} and friends) taints the written range with the origin
    installed by {!with_origin}; {!reset_to_baseline} clears the
    whole shadow (a baseline is never captured while one is attached),
    and a frame's taint is cleared whenever the frame is scrubbed.
    Writes that go through a mutable {!frame} view bypass the byte
    paths and must call {!taint} explicitly. Detached (the default), every hook below is a single
    option match. *)

val set_provenance : t -> Provenance.t option -> unit
val provenance : t -> Provenance.t option

val enable_provenance : t -> tr:Trace.t -> unit
(** Attach a fresh shadow wired to [tr], so interpretation edges land
    in its event ring when it records. Idempotent: a no-op when a
    shadow is already attached. *)

val with_origin : t -> Provenance.origin -> (unit -> 'a) -> 'a
(** Label writes in [f]'s dynamic extent; identity when detached. *)

val taint : t -> mfn:Addr.mfn -> off:int -> len:int -> unit
(** Explicit taint for writes that bypass the byte paths
    ([Frame.set_entry] through a mutable {!frame} view). *)

val observe : t -> consumer:Provenance.consumer -> mfn:Addr.mfn -> off:int -> len:int -> unit
(** Record that [consumer] interpreted the byte range (no-op when
    detached or untainted). *)
