(** Hypervisor access to guest-supplied pointers
    ([__copy_to_user] / [__copy_from_user]).

    The checked variants enforce [__addr_ok]: a guest pointer must lie
    in guest-accessible address space before the hypervisor dereferences
    it through the guest's page tables.

    The [*_unchecked] variants reproduce the XSA-212 defect: the range
    check is skipped, and because hypervisor code runs with all of
    memory mapped, a pointer into Xen's direct map becomes an arbitrary
    read/write primitive. *)

val copy_to_guest : Hv.t -> Domain.t -> Addr.vaddr -> bytes -> (unit, Errno.t) result
val copy_from_guest : Hv.t -> Domain.t -> Addr.vaddr -> int -> (bytes, Errno.t) result

val copy_to_guest_unchecked : Hv.t -> Domain.t -> Addr.vaddr -> bytes -> (unit, Errno.t) result
(** The broken path: direct-map addresses are written through Xen's own
    mapping; other addresses fall back to the guest path without the
    [__addr_ok] filter. *)

val guest_range_ok : Hv.t -> Addr.vaddr -> int -> bool
(** The correct [__addr_ok] predicate: the whole range sits in
    guest-low or guest-kernel space. *)
