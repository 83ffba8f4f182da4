(** A PV guest kernel.

    Wraps a {!Ii_xen.Domain.t} with the guest-side machinery the
    evaluation needs: a printk log with dmesg-style timestamps, a tiny
    filesystem and shell, hypercall wrappers, memory accessors that
    route faults through Xen's IDT (so a corrupted IDT turns any guest
    fault into the paper's double-fault panic), and the vDSO execution
    hook that makes an installed backdoor actually run. *)

type t

val create : Hv.t -> Domain.t -> Netsim.t -> t

val reset : t -> unit
(** Return [t] to the state {!create} left it in, in place: empty log
    and jiffies, boot filesystem (kept as it is when nothing wrote it
    since boot: see {!Fs.generation}), boot process table, no irq
    handlers, no events handled. The domain record and the network are the
    caller's to restore ({!Testbed.reset} does both). *)

val hv : t -> Hv.t
val dom : t -> Domain.t
val fs : t -> Fs.t
val hostname : t -> string
val ip : t -> string
val domid : t -> int

(** {1 Kernel log} *)

val printk : t -> string -> unit
val printk_tagged : t -> tag:string -> string -> unit
(** [printk_tagged ~tag:"xen_exploit" "..."] renders
    ["[  ...] xen_exploit:   ..."] like the paper's transcripts. *)

val klog : t -> string list
(** Log lines, oldest first. Each line is stored as its jiffies stamp
    and the parts of its text, and formatted here, on read: a trial
    that logs and is never read pays no formatting. *)

(** {1 Hypercalls and privileged instructions} *)

val hypercall : t -> Hypercall.call -> (int64, Errno.t) result
val hypercall_rc : t -> Hypercall.call -> int
(** Guest-visible return code ([-14] for [EFAULT]...). *)

val sidt : t -> Addr.vaddr
val pt_base_mfn : t -> Addr.mfn
(** From the start_info page, like a real PV kernel learns it. *)

val start_info_vaddr : t -> Addr.vaddr
val vdso_mfn : t -> Addr.mfn

val pt_entry : t -> table_mfn:Addr.mfn -> index:int -> Pte.t option
(** Read one of the kernel's own page-table entries through its
    read-only kernel mapping of the table page ([None] when the frame
    is not mapped in the kernel area — e.g. a Xen-owned table). *)

(** {1 Memory access (kernel privilege)}

    On a page fault these deliver the exception through Xen's IDT
    first; if Xen survives (gate intact) the kernel logs the usual
    "unable to handle kernel paging request" and the access fails. *)

val read_u64 : t -> Addr.vaddr -> (int64, Paging.fault) result
val write_u64 : t -> Addr.vaddr -> int64 -> (unit, Paging.fault) result
val read_bytes : t -> Addr.vaddr -> int -> (bytes, Paging.fault) result

val read_into : t -> Addr.vaddr -> bytes -> int -> int -> (unit, Paging.fault) result
(** [read_into t va buf pos len] is {!read_bytes} of [len] bytes into
    [buf] at [pos], with no buffer allocated: it records the same
    [Op_read_bytes] boundary event and makes the same virtual-clock
    charge, faults the same way, and leaves [buf] unspecified on a
    fault. *)

val write_bytes : t -> Addr.vaddr -> bytes -> (unit, Paging.fault) result

val invlpg : t -> Addr.vaddr -> unit
(** MMUEXT_INVLPG_LOCAL: drop the cached translation of one page in
    this domain's address space. Exploits that remap a window page by
    rewriting a page-table entry directly must issue this — exactly as
    their real-world counterparts do — or keep reading the old frame
    through the TLB. *)

val user_write_u64 : t -> Addr.vaddr -> int64 -> (unit, Paging.fault) result
(** Same, with user privilege (used by the XSA-182 test's final
    user-space write). *)

val user_read_u64 : t -> Addr.vaddr -> (int64, Paging.fault) result

(** {1 Event-channel delivery} *)

val bind_irq_handler : t -> port:int -> (unit -> unit) -> unit
(** Register the kernel's handler for a local event-channel port. *)

val irqs_handled : t -> int
(** Events consumed so far. Each {!tick} drains at most a fixed budget
    of pending ports, so an injected interrupt storm shows up as a
    persistent backlog rather than an infinite loop. *)

(** {1 Shell and processes} *)

val shell : t -> uid:int -> string -> string
(** Run a command line; [ps] is resolved against the kernel's process
    table, everything else by {!Shell}. *)

val processes : t -> Process.t

(** {1 The vDSO hook} *)

module Backdoor : sig
  val magic : string

  type payload =
    | Run_as_root of string  (** shell command *)
    | Reverse_shell of { host : string; port : int }

  val encode : payload -> bytes
  (** The byte blob an attacker writes at the vDSO code offset. *)

  val decode : bytes -> payload option
end

val balloon : t -> unit
(** Honour the XenStore [memory/target] node by releasing the highest
    releasable data pages back to the hypervisor (page-table and
    special pages are never ballooned). Runs on every {!tick}. *)

val tick : t -> unit
(** One scheduler tick: the balloon driver runs, then user processes
    execute the vDSO; if its code area carries a backdoor, the payload
    runs with root privilege. This is how patching another domain's
    vDSO becomes a privilege escalation. *)
