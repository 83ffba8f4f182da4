(** A baseline scan cache: monitor results remembered across snapshots
    of one resettable machine.

    Campaign loops snapshot the same reset-to-baseline machine
    thousands of times, and almost every trial leaves the structures a
    monitor scans (page tables, the M2P, EPTs, VMCSs) untouched. A memo
    entry is a scan result together with its dependencies, two sets of
    frames:
    - the frames whose bytes the scan read;
    - the frames whose type state (Xen's [Page_info]) it consulted.

    One rule decides validity: an entry holds while none of the first
    set is {!Phys_mem.is_dirty} and none of the second is touched since
    the baseline. A trial that dirties or retypes only its own domain's
    frames therefore rescans only that domain. Only a scan whose
    dependencies hold is stored, so every stored value is a scan of the
    baseline.

    The memo is anchored to a baseline, the memory's
    {!Phys_mem.baseline_epoch}: a new epoch drops every entry. The
    type-state side must be checkpointed with the memory (as
    [Hv.checkpoint] does), so that "touched" and "dirty" count from the
    same baseline.

    A memo never outlives its machine and is never shared between
    machines: the anchor identifies a baseline, not a machine. *)

type 'a t

val create : unit -> 'a t
(** An empty memo; the first {!usable} call anchors it. Entries are
    checked against the baseline, not against the state the memo was
    made or first used in, so it may be made and first used anywhere. *)

val usable : 'a t -> Phys_mem.t -> bool
(** Whether entries may be read and stored now, re-anchoring (and
    dropping every entry) when the baseline moved. False while a
    {!Provenance} shadow is attached: a hit would skip the
    {!Phys_mem.observe} calls a fresh scan makes, so provenance graphs
    are only exact without the memo. *)

type deps
(** Where a running scan notes its dependencies. *)

val note_read : deps -> Addr.mfn -> unit
(** The scan read this frame's bytes. *)

val note_type : deps -> Addr.mfn -> unit
(** The scan consulted this frame's type state. *)

val get :
  'a t -> Phys_mem.t -> ?touched:(Addr.mfn -> bool) -> key:int -> root:int -> (deps -> 'a) -> 'a
(** [get t mem ?touched ~key ~root scan] is the value cached under [key]
    when its [root] (the frame the scan starts from) matches and its
    dependencies hold; otherwise it runs [scan deps], where [scan] notes
    every frame its result depends on, and stores the result if those
    dependencies hold. [touched] tells whether a frame's type state
    changed since the baseline; omit it when none did. The dependency
    sets are stored sorted and deduplicated, and the scan's notes go to
    buffers the memo reuses, so a rescan that is not stored leaves no
    garbage in the memo. [scan] must not call [get] on the same memo.
    Call only after {!usable} returned true. *)
