(** XenStore: the hierarchical configuration store shared between the
    toolstack (dom0) and guests.

    Real guests react to their XenStore subtree — most prominently
    [memory/target], which drives the balloon driver. That makes the
    management interface an attack surface of its own: the paper's §IX
    names "activities originating from the management interface" as the
    next intrusion models to support, and this substrate carries them.

    Permissions are the essential ones: dom0 reads and writes
    everything; a guest only its own [/local/domain/<id>] subtree. The
    injector hook bypasses them, planting exactly the erroneous state a
    compromised toolstack (or a XenStore bug) would produce. *)

type t

val create : unit -> t

val set_tracer : t -> Trace.t -> unit
(** Record store writes as boundary events while the tracer's ring is
    enabled (management-plane inputs are part of a trial's replayable
    input stream). *)

val domain_path : int -> string -> string
(** [domain_path 3 "memory/target"] is ["/local/domain/3/memory/target"]. *)

val may_access : caller:int -> string -> bool
(** Dom0 ([caller = 0]) may access every path; any other caller only
    paths below ["/local/domain/<caller>/"]. Checked in place, with no
    string built, for every int [caller]. *)

val write : t -> caller:int -> string -> string -> (unit, Errno.t) result
(** Dom0 may write anywhere; other domains only below their own
    subtree ([EACCES] otherwise). *)

val read : t -> caller:int -> string -> (string, Errno.t) result
(** Dom0 reads everything; other domains their own subtree.
    [ENOENT] for missing nodes. *)

val read_or : t -> caller:int -> string -> default:string -> string
(** {!read} without the result box: the value, or [default] where {!read}
    fails. Allocates nothing — the read a guest makes every tick. *)

val generation : t -> int
(** Moves on every change to the store ({!write}, {!rm},
    {!inject_write}, a {!restore_dump} that rewrites it); equal
    generations of one store mean every read between them saw the same
    nodes. *)

val rm : t -> caller:int -> string -> (unit, Errno.t) result
val list_prefix : t -> caller:int -> string -> (string list, Errno.t) result
(** Paths under a prefix the caller may read, sorted. *)

val inject_write : t -> string -> string -> unit
(** The injector hook: write bypassing all permission checks. *)

val dump : t -> (string * string) list
(** Every node, sorted by path (hypervisor-side inspection). *)

val restore_dump : t -> (string * string) list -> unit
(** Replace the whole store with a previous {!dump} (checkpoint
    restore). Change-gated: a no-op when this very list (compared by
    physical identity) was the last one restored and the store has not
    been mutated since. A checkpoint's dump is its identity, so
    restoring two checkpoints of one store in turn rewrites it each
    time. *)
