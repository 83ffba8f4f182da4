(** The testbed-resident device model: one {!Fdc} instance serving one
    guest domain, wired into the trace, vclock and provenance stacks.

    Two surfaces reach the FDC:

    - {!guest_io} — the guest-facing command path ([fd_write_data]
      through the FIFO). On a VENOM-vulnerable build an over-long write
      overflows into the handler pointer: the {e exploit} path.
    - {!inject} — the injection surface: write the erroneous state
      (bytes beyond the FIFO end) directly, counted and recorded like
      any other injector access. Reachability is gated by the
      substrate ([Substrate_xen.inject_dm_write] refuses unless the
      injection port is installed).

    A corrupted handler {e radiates} on the next {!kick} (run every
    scheduler round): the device model writes a backdoor into the
    served guest's vDSO page under a {!Provenance.Device_model} origin
    carrying the corrupting injector ordinal (or 0 for the exploit
    path) — so a privilege escalation observed in the {e bystander}
    domain still attributes back to the injector. *)

type t

val create : Hv.t -> served:int -> t
(** A device model for the domain [served], configured from the host's
    {!Version} ({!Version.venom_fixed}, {!Version.dm_handler_validation}). *)

val fdc : t -> Fdc.t
val served : t -> int

val corrupted : t -> bool
(** The handler pointer no longer holds its legitimate value. *)

val radiated : t -> bool

val reset : t -> unit
(** Back to pristine device-model state (testbed reset path). *)

val op_guest_io : int
(** [Trace.Backend_op] op code for {!guest_io} boundary records (100). *)

val op_inject : int
(** [Trace.Backend_op] op code for {!inject} boundary records (101). *)

val guest_io : t -> domid:int -> bytes -> (unit, Errno.t) result
(** Issue [fd_write_data data] from guest [domid]. Emits a boundary
    record, charges {!Vclock.Dm_io}, and fails with [EINVAL] when a
    fixed build rejects the over-long input. *)

val inject : t -> bytes -> (unit, Errno.t) result
(** Write [data] directly past the FIFO end (the handler pointer sits
    at offset 0). Emits a boundary record and an [Injector_access]
    record, bumps the injector counter, charges {!Vclock.Dm_io}. *)

val kick : t -> unit
(** One device-model turn (run from [Testbed.tick_all]): dispatch
    through the handler; a hijacked handler radiates the backdoor into
    the served guest's vDSO exactly once per corruption. *)
