(** The hypercall table and dispatcher — the guest/hypervisor interface
    every intrusion model in this study names as its interaction
    interface.

    Calls carry typed arguments; [number_of_call] gives the real Xen
    hypercall numbers for reference and for the extension table, which
    is how the prototype injector registers its new hypercall
    ("small changes in the hypercalls table had to be done to add the
    new hypercall", §V-B). Guests reach the hypervisor only through
    {!dispatch}; register decoding and the fetch of argument
    structures from guest memory are not modelled.

    A top-level call is also a recorded input. Its payload
    ({!encode_call}, {!decode_call}) is written in {!Trace.Wire}, the
    codec of the trace ring's own records: [call], [grant_op] and
    [evtchn_op] are each a tagged variant there, and each constructor
    is one case that declares its [u8] tag, its fields and its
    constructor once, so the encoder and the decoder come from the same
    declaration. *)

type grant_op =
  | Gnttab_setup_table of { nr_frames : int }
  | Gnttab_set_version of Grant_table.gt_version
  | Gnttab_grant_access of { gref : int; grantee : int; pfn : Addr.pfn; readonly : bool }
  | Gnttab_end_access of { gref : int }
  | Gnttab_map of { granter : int; gref : int }
  | Gnttab_unmap of { granter : int; handle : int }

type evtchn_op =
  | Evtchn_alloc_unbound of { allowed_remote : int }
  | Evtchn_bind_interdomain of { remote_dom : int; remote_port : int }
  | Evtchn_bind_virq of { virq : int }
  | Evtchn_send of { port : int }
  | Evtchn_close of { port : int }

type call =
  | Mmu_update of (int64 * Pte.t) list
  | Update_va_mapping of { va : Addr.vaddr; value : Pte.t }
  | Memory_exchange of Memory_exchange.request
  | Decrease_reservation of Addr.pfn list
  | Grant_table_op of grant_op
  | Event_channel_op of evtchn_op
  | Console_io of string
  | Raw of { number : int; args : int64 array }
      (** dispatched through the extension table (injector) *)

val number_of_call : call -> int
(** Real Xen hypercall numbers (mmu_update = 1, memory_op = 12, ...). *)

val encode_call : call -> string
(** The binary serialization recorded as a traced hypercall's payload
    ({!Trace.event.Hypercall}): a u8 tag per constructor, then its
    fields. [decode_call] inverts it, which is what lets a replay
    driver re-issue a recorded call. *)

val decode_call : string -> call option
(** [None] on input that is truncated, carries a negative count or an
    unknown tag or grant-table version; never raises. *)

val grant_op_index : grant_op -> int
val evtchn_op_index : evtchn_op -> int
(** The op's wire tag, as recorded in trace [Grant_op]/[Evtchn_op]
    events. *)

val dispatch : Hv.t -> Domain.t -> call -> (int64, Errno.t) result
(** Execute a hypercall on behalf of a domain. Never raises on guest
    input; a crashed hypervisor refuses everything with [EINVAL].

    Every dispatch feeds the hypervisor's trace: counters always
    (number + failure), and — while the ring is recording — an entry
    record (with the full {!encode_call} payload at top level, or a
    payload-less record for nested calls) plus an exit record with the
    return value. *)

val return_code : (int64, Errno.t) result -> int
(** The guest-visible return value ([-EFAULT] style). *)
