(** A baseline scan cache: monitor results remembered across snapshots
    of one resettable machine.

    Campaign loops snapshot the same reset-to-baseline machine
    thousands of times, and almost every trial leaves the structures a
    monitor scans (page tables, the M2P, EPTs, VMCSs) untouched. A memo
    entry is a scan result together with the frames the scan read (its
    dependencies). It stays valid while {!Phys_mem.dirty_list} — the
    frames touched since the baseline — is disjoint from them, and only
    a scan whose dependencies were all clean is stored, so every stored
    value is a scan of baseline bytes.

    The memo is anchored to a baseline: the memory's
    {!Phys_mem.baseline_epoch} plus an optional extra generation number
    for state that lives outside frames (Xen's [Page_info] type state).
    A new epoch drops every entry. Within an epoch the anchor is the
    lowest generation seen, because a restore rewinds the generation to
    the checkpointed value and every mutation raises it; a higher
    generation makes the memo unusable until the next reset.

    A memo never outlives its machine and is never shared between
    machines: the anchor identifies a baseline, not a machine. *)

type 'a t

val create : unit -> 'a t
(** An unanchored memo; the first {!usable} call anchors it. *)

val anchored : ?gen:int -> Phys_mem.t -> 'a t
(** A memo anchored at the memory's current baseline epoch and [gen]
    (default 0). Make it while the machine sits at its baseline, as a
    testbed does at boot and fork, so a later first snapshot of a
    diverged machine cannot become the anchor. *)

val usable : 'a t -> Phys_mem.t -> ?gen:int -> unit -> bool
(** Whether entries may be read and stored now, re-anchoring (and
    dropping every entry) when the baseline moved. False while a
    {!Provenance} shadow is attached: a hit would skip the
    {!Phys_mem.observe} calls a fresh scan makes, so provenance graphs
    are only exact without the memo. *)

val get : 'a t -> Phys_mem.t -> key:int -> root:int -> ((Addr.mfn -> unit) -> 'a) -> 'a
(** [get t mem ~key ~root scan] is the value cached under [key] when its
    [root] (the frame the scan starts from) matches and its dependencies
    are clean; otherwise it runs [scan note], where [scan] calls [note]
    on every frame its result depends on, and stores the result if those
    frames are clean. Call only after {!usable} returned true. *)
