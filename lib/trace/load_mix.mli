(** Deterministic background workload mixes for multi-domain testbeds.

    A mix names how many background operations every guest domain
    performs per scheduler round ({!ops_per_tick}); {e which} operations
    is decided by a per-domain splitmix64 {!stream} seeded from the
    domain id. Because the streams are seeded on every testbed
    create/fork, re-seeded on every reset and drawn only inside the
    (replayed) scheduler
    round, a loaded testbed stays deterministic: pooled ≡ fresh and
    record/replay reproduce the same (vts, event) stream byte for byte.

    The ops themselves run through the ordinary instrumented guest
    paths (hypercalls, guest memory accesses), so load is charged on
    the virtual clock — "N hypercalls per virtual second" is a
    reproducible number, not a host-speed artifact. *)

type t

val none : t
(** Zero background ops: the historical single-attacker behaviour. *)

val default : t
(** 2 ops per domain per scheduler round. *)

val heavy : t
(** 6 ops per domain per scheduler round. *)

val all : t list

val to_string : t -> string
(** "none", "default", "heavy" — the [--load] argument vocabulary. *)

val of_string : string -> t option
val ops_per_tick : t -> int

(** {1 Per-domain streams} *)

type stream

val seed_for_domain : int -> int64
(** The canonical seed for a domain's stream (a function of the domain
    id only, so every testbed shape agrees). *)

val stream : seed:int64 -> stream

val reseed : stream -> seed:int64 -> unit
(** Put the stream back at [seed], as {!stream} built it. *)

val next : stream -> int64
(** Advance the splitmix64 state and return the next 64-bit draw. *)
