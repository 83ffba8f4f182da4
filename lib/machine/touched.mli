(** A set of small integer indices (frames, grant refs, ports, pfns)
    changed since a checkpoint or baseline, so a restore replays only
    those: the memory's dirty frames, [Page_info]'s touched frames and
    each domain's changed P2M slots, grant entries and ports.

    A flag byte per index says whether it is in the set, and a stack
    holds the members in the order they were first marked. The stack
    starts at 32 slots and grows once, to one slot per index, when a
    set first outgrows them: a set that stays small (a fresh fork's)
    never pays for every index, and after the growth marking allocates
    nothing. The fields are readable so a restore loop indexes the
    stack without a call. *)

type t = private {
  flags : Bytes.t;  (** ['\001'] at index [i] iff [i] is in the set *)
  mutable stack : int array;
      (** the members, first marked first, in [stack.(0 .. count - 1)] *)
  mutable count : int;
}

val create : int -> t
(** An empty set over indices [0 .. n - 1]. *)

val add : t -> int -> unit
(** Put an in-range index in the set (no bounds check beyond the
    array's own). *)

val mem : t -> int -> bool
(** False outside [0 .. n - 1]. *)

val clear : t -> unit
(** Empty the set in O(members). *)
