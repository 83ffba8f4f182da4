(** A QEMU-style device model with an emulated floppy disk controller —
    the paper's §III illustration of intrusion injection beyond the
    hypervisor core (XSA-133 / VENOM).

    The FDC keeps a fixed-size FIFO inside the device-model process
    memory; immediately after it lives the controller's request-handler
    pointer. The VENOM defect is a missing bound on buffered input: an
    over-long write overflows the FIFO and corrupts the adjacent
    memory. An intrusion injector reproduces the same erroneous state
    directly ("overwriting the FDC request handler method", §III-B)
    without needing the vulnerable code path. *)

type config = {
  venom_vulnerable : bool;  (** the CVE-2015-3456 bound check is absent *)
  handler_validation : bool;
      (** a hardened device model validates the handler pointer before
          dispatching (the mitigation whose effectiveness intrusion
          injection lets one assess) *)
}

type t

val fifo_size : int
val memory_size : int
val handler_offset : int
(** Byte offset of the request-handler pointer — right after the FIFO. *)

val legitimate_handler : int64

val create : config -> t
val config : t -> config

(** {1 The guest-facing command interface} *)

type command =
  | Fd_write_data of bytes  (** buffer data into the FIFO *)
  | Fd_read_id
  | Fd_reset

val issue : t -> command -> (unit, string) result
(** On a vulnerable build, [Fd_write_data] longer than the FIFO
    overflows into adjacent memory. Fixed builds refuse it. *)

(** {1 The injector hook} *)

val inject_overflow : t -> bytes -> unit
(** Write the erroneous state directly: bytes beyond the FIFO end,
    exactly as a successful VENOM exploitation leaves them. *)

(** {1 Inspection and dispatch} *)

val handler_value : t -> int64
val handler_intact : t -> bool

val kick : t -> [ `Dispatched | `Hijacked of int64 | `Rejected_corrupt_handler ]
(** Process pending requests through the handler pointer: a corrupted
    pointer means attacker code execution — unless handler validation
    catches it (the erroneous state is handled). *)

val reset : t -> unit
