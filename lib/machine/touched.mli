(** A set of small integer indices (frames, grant refs, ports, pfns)
    changed since a checkpoint or baseline, so a restore replays only
    those: the memory's dirty frames, [Page_info]'s touched frames and
    each domain's changed P2M slots, grant entries and ports.

    Marking and clearing allocate nothing: a flag byte per index says
    whether it is in the set, and a stack holds the members in the
    order they were first marked, one slot per index. The fields are
    readable so a restore loop indexes the stack without a call. *)

type t = private {
  flags : Bytes.t;  (** ['\001'] at index [i] iff [i] is in the set *)
  stack : int array;  (** the members, first marked first, in [stack.(0 .. count - 1)] *)
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
