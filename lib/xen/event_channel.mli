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

type port = {
  mutable binding : port_binding option;  (** [None] = free port *)
  mutable pending : bool;
  mutable masked : bool;
}

type t

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
(** [List.length (pending_ports t)], without building the list. *)

val any_pending : t -> bool
val bound_ports : t -> int list

val force_pending_all : t -> int
(** Set every port pending regardless of binding, returning how many
    were raised — the raw erroneous state behind the uncontrolled
    interrupt intrusion model. Never called by legitimate hypercalls. *)

val deep_copy : t -> t
(** Structural copy (for hypervisor checkpointing). *)

val restore_into : t -> from:t -> unit
(** Copy every port of [from] into the matching port record of [t] (the
    in-place counterpart of {!deep_copy}). Raises [Invalid_argument] if
    the tables differ in size. *)
