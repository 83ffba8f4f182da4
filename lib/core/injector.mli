(** The prototype intrusion injector (§V).

    A new hypercall, [arbitrary_access], is registered in the
    hypervisor's call table. It lets a guest kernel read or write [n]
    bytes at an arbitrary address, in linear (already mapped in the
    hypervisor) or physical (mapped into Xen's linear space on demand)
    address mode — deliberately bypassing the restriction machinery
    that [mmu_update] and friends enforce:

    {v
    arbitrary_access(addr_t addr, void *buf, size_t n, action_t action)
    v}

    The injector runs with hypervisor privilege, so injection succeeds
    regardless of version; whether the injected erroneous state then
    leads to a security violation depends on how that version handles
    the state — which is the whole point of the technique. *)

val hypercall_number : int
(** 40 — the slot added to each version's hypercall table. *)

val hypercall_name : string

type action = Access.action =
  | Arbitrary_read_linear
  | Arbitrary_write_linear
  | Arbitrary_read_physical
  | Arbitrary_write_physical
(** Equal to {!Access.action} — the codec shared with every other
    backend's injection port. *)

val action_code : action -> int64
val action_of_code : int64 -> action option

val install : Hv.t -> unit
(** Patch the hypercall table (idempotent). Logs the version-specific
    shim, mirroring §V-B. *)

val installed : Hv.t -> bool

val scratch_pfn : Addr.pfn
(** Guest pfn the wrappers below stage transfer buffers in. *)

(** {1 Guest-side wrappers}

    These issue the raw hypercall exactly as an injection script in the
    guest kernel would: stage the buffer in guest memory, then trap
    into the hypervisor. *)

val write : Kernel.t -> addr:int64 -> action:action -> bytes -> (unit, Errno.t) result
val write_u64 : Kernel.t -> addr:int64 -> action:action -> int64 -> (unit, Errno.t) result
val read : Kernel.t -> addr:int64 -> action:action -> len:int -> (bytes, Errno.t) result
val read_u64 : Kernel.t -> addr:int64 -> action:action -> (int64, Errno.t) result
