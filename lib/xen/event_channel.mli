(** Per-domain event channels — Xen's interrupt substrate.

    The paper notes that interrupts in Xen are "implemented using event
    channel data structures", which is why memory-corruption erroneous
    states can surface as interrupt misbehaviour. This module provides
    the substrate targeted by the interrupt-flavoured intrusion model
    (Uncontrolled Arbitrary Interrupt Requests). *)

type port_binding =
  | Unbound of { allowed_remote : int }
  | Interdomain of { remote_dom : int; remote_port : int }
  | Virq of int

type port = private {
  mutable binding : port_binding option;  (** [None] = free port *)
  mutable pending : bool;
  mutable masked : bool;
}

type t
(** The ports, the ports changed since the latest {!checkpoint}, and the
    number of pending ports. Every pending bit is written through one
    function, which keeps that number, so {!pending_count} and
    {!any_pending} read it in O(1); copies and restores carry it with
    the ports. *)

val create : max_ports:int -> t
val max_ports : t -> int
val port : t -> int -> port option

val alloc_unbound : t -> allowed_remote:int -> (int, Errno.t) result
(** Allocate a free port that [allowed_remote] may later bind to. *)

val bind_interdomain :
  local:t -> local_dom:int -> remote:t -> remote_dom:int -> remote_port:int ->
  (int, Errno.t) result
(** Bind a new local port to a remote unbound port; completes the remote
    side too. Fails with [EPERM] unless the remote port allows
    [local_dom]. *)

val bind_virq : t -> virq:int -> (int, Errno.t) result
val send : t -> int -> (unit, Errno.t) result
(** Mark a bound port of {e this} table pending — the delivery
    primitive. Interdomain routing (signal the peer's port) lives in
    the hypercall dispatcher. *)

val consume : t -> int -> bool
(** Clear and report a port's pending bit. *)

val close : t -> int -> (unit, Errno.t) result
val pending_ports : t -> int list

val pending_count : t -> int
(** [List.length (pending_ports t)] in O(1). *)

val any_pending : t -> bool
(** [pending_count t > 0]: what every kernel tick asks first. *)

val first_pending : t -> limit:int -> int list
(** The lowest [limit] pending ports, ascending: the first [limit]
    elements of {!pending_ports}, found without walking past them. *)

val bound_ports : t -> int list

val force_pending_all : t -> int
(** Set every port pending regardless of binding, returning how many
    were raised — the raw erroneous state behind the uncontrolled
    interrupt intrusion model. Never called by legitimate hypercalls. *)

val deep_copy : t -> t
(** Structural copy (for hypervisor checkpointing), with no changes
    recorded. *)

val checkpoint : t -> t
(** A {!deep_copy} of [t] to {!restore_into} [t] later: from here on,
    [t] records the ports its mutators change, which is what
    {!restore_into} replays. Only the latest checkpoint of a table can
    be restored into it. *)

val restore_into : t -> from:t -> unit
(** Copy the ports changed since the latest {!checkpoint} back from
    [from] (that checkpoint, or a {!deep_copy} of it) into the matching
    port records of [t]: the in-place counterpart of {!deep_copy}, in
    O(changed ports). Raises [Invalid_argument] if the tables differ in
    size. *)
