(** A baseline scan cache: monitor results remembered across snapshots
    of one resettable machine.

    Campaign loops snapshot the same reset-to-baseline machine
    thousands of times, and almost every trial leaves the structures a
    monitor scans (page tables, the M2P, EPTs, VMCSs) untouched. The
    memo holds {e nodes}. A node is one scan's result under a key (the
    frame the scan starts from and an int of the caller's), together
    with its dependencies, two sets of frames:
    - the frames whose bytes the scan read;
    - the frames whose type state (Xen's [Page_info]) it consulted.

    A scan may use other scans, as a page-table walk uses the walks of
    the tables its entries point to; the nodes of those are the node's
    children, and its value includes theirs. One rule decides whether a
    node holds: none of its own reads is {!Phys_mem.is_dirty} and none
    of its own types is touched since the baseline. Its children are
    checked one by one, so a trial that dirties one table re-probes that
    table alone. A node is stored only when its dependencies hold and
    every scan it used was itself stored, so every stored value, and
    every value below it, is a scan of the baseline.

    The memo is anchored to a baseline, the memory's
    {!Phys_mem.baseline_epoch}: a new epoch drops every node. The
    type-state side must be checkpointed with the memory (as
    [Hv.checkpoint] does), so that "touched" and "dirty" count from the
    same baseline.

    A memo never outlives its machine and is never shared between
    machines: the anchor identifies a baseline, not a machine. *)

type 'a t

val create : unit -> 'a t
(** An empty memo; the first {!usable} call anchors it. Nodes are
    checked against the baseline, not against the state the memo was
    made or first used in, so it may be made and first used anywhere. *)

val usable : 'a t -> Phys_mem.t -> bool
(** Whether nodes may be read and stored now, re-anchoring (and
    dropping every node) when the baseline moved. False while a
    {!Provenance} shadow is attached: a hit would skip the
    {!Phys_mem.observe} calls a fresh scan makes, so provenance graphs
    are only exact without the memo. *)

val size : 'a t -> int
(** The number of stored nodes. *)

type deps
(** Where a running scan notes its dependencies. *)

val note_read : deps -> Addr.mfn -> unit
(** The scan read this frame's bytes. *)

val note_type : deps -> Addr.mfn -> unit
(** The scan consulted this frame's type state. *)

val get :
  'a t -> Phys_mem.t -> ?touched:(Addr.mfn -> bool) -> key:int -> root:int -> (deps -> 'a) -> 'a
(** [get t mem ?touched ~key ~root scan] is the value of the childless
    node stored under [(root, key)] when it {!holds}; otherwise it runs
    [scan deps], where [scan] notes every frame its result depends on,
    and stores the result if those dependencies hold. The dependency
    sets are stored sorted and deduplicated, and the scan's notes go to
    buffers the memo reuses, so a rescan that is not stored leaves no
    garbage in the memo. Call only after {!usable} returned true. *)

(** {1 Trees of scans}

    A scan that uses other scans runs between {!enter} and {!leave}.
    Every scan it uses, it either finds stored and passes to {!keep},
    or runs itself between a nested {!enter} and {!leave}. Nothing here
    allocates except the storing {!leave}. *)

type 'a node

val find : 'a t -> root:int -> tag:int -> 'a node
(** The node stored under [(root, tag)]. Raises [Not_found]. *)

val holds : Phys_mem.t -> ?touched:(Addr.mfn -> bool) -> 'a node -> bool
(** Whether none of the node's own reads is dirty and none of its own
    types touched. [touched] tells whether a frame's type state changed
    since the baseline; omit it when none did. Its children are not
    checked. *)

val tree_holds : Phys_mem.t -> ?touched:(Addr.mfn -> bool) -> 'a node -> bool
(** Whether the node and every descendant hold, in one pass over the
    union of their dependencies (kept sorted and deduplicated with the
    node): then its value is still exact. *)

val value : 'a node -> 'a
val children : 'a node -> 'a node array
val root : 'a node -> int
val tag : 'a node -> int

val enter : 'a t -> unit
(** A scan starts. Its notes go to [deps] until the matching {!leave}. *)

val deps : 'a t -> deps

val keep : 'a t -> 'a node -> unit
(** The running scan uses this stored node, which {!holds}, as a child.
    Outside any scan this does nothing. *)

val leave :
  'a t -> Phys_mem.t -> ?touched:(Addr.mfn -> bool) -> store:bool -> root:int -> tag:int -> 'a ->
  unit
(** The innermost running scan ends with this value. With [store], and
    when its noted dependencies hold and every scan it used was stored
    or kept, it is stored under [(root, tag)] (replacing any node
    there) with the kept and stored scans as its children, and becomes
    a child of the enclosing scan. Otherwise nothing is stored and the
    enclosing scan cannot be stored either. *)
