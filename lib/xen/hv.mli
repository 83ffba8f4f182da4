(** Hypervisor state: physical memory, CPU, page bookkeeping, domains,
    the in-memory IDT and M2P table, the console ring and crash status.

    Booting installs the structures every exploit interacts with:
    - the IDT page, with Xen's handler entry points registered as the
      only valid handler addresses (a corrupted gate is detectable and
      escalates to a double fault);
    - the machine-to-physical table, written as real memory so guests
      (and attackers scanning memory) read actual bytes;
    - the Xen text frame whose direct-map addresses serve as handler
      entry points. *)

type crash = { reason : string; dump : string list }

type t = {
  version : Version.t;
  mem : Phys_mem.t;
  cpu : Cpu.t;
  pages : Page_info.t;
  mutable domains : Domain.t list;
  idt_mfn : Addr.mfn;
  text_mfn : Addr.mfn;
  m2p_mfns : Addr.mfn array;
  console : Buffer.t;
  xenstore : Xenstore.t;
  sched : Sched.t;
  mutable crashed : crash option;
  mutable next_domid : int;
  mutable extra_hypercalls : (int * string * hypercall_handler) list;
  mutable pt_write_hook : (Addr.mfn -> unit) option;
      (** observer of legitimate, validated page-table writes — how an
          integrity monitor tracks the authorized update stream *)
  trace : Trace.t;
      (** the observability substrate: always-on counters plus the
          optional event ring ({!Trace}) *)
}

and hypercall_handler = t -> Domain.t -> int64 array -> (int64, Errno.t) result

val boot : version:Version.t -> frames:int -> t
(** A fresh hypervisor with no domains yet. *)

val hardened : t -> bool
val log : t -> string -> unit
(** Append a ["(XEN) "]-prefixed line to the console ring. *)

val console_lines : t -> string list
val is_crashed : t -> bool
val panic : t -> reason:string -> dump:string list -> unit
(** Record the crash and print the dump to the console. Idempotent:
    the first panic wins. *)

val find_domain : t -> int -> Domain.t option
val dom0 : t -> Domain.t option
val fresh_domid : t -> int

(** {1 Page allocation} *)

val alloc_xen_page : t -> Addr.mfn
val alloc_domain_page : t -> Domain.t -> Addr.mfn
val release_page : t -> Addr.mfn -> (unit, Errno.t) result
(** Free a frame if no references are held beyond the allocation
    reference ([ref_count = 1], no live type). *)

(** {1 The M2P table} *)

val m2p_set : t -> Addr.mfn -> Addr.pfn option -> unit

val m2p_lookup : t -> Addr.mfn -> Addr.pfn
(** The pfn the M2P records for [mfn], or [-1] when the entry is
    invalid (or holds a negative value, which no pfn is). Allocates
    nothing. *)

val m2p_invalid_entry : int64

val m2p_frame_for : t -> Addr.mfn -> Addr.mfn
(** Frame of the M2P table holding the entry for [mfn]. *)

val m2p_offset : Addr.mfn -> int
(** Byte offset of [mfn]'s entry inside {!m2p_frame_for}. *)

val is_m2p_frame : t -> Addr.mfn -> bool

val m2p_mismatches : t -> int
(** How many populated P2M entries, over every domain, the M2P does not
    invert ([m2p_lookup t mfn <> pfn]); each such M2P entry is observed
    as an [M2p_check] consumption. Allocates nothing. *)

(** {1 Exception plumbing} *)

val handler_vaddr : t -> int -> Addr.vaddr
(** Entry point Xen registered for vector [v]. *)

val deliver_fault : t -> vector:int -> detail:string -> Cpu.exception_outcome
(** Deliver a hardware exception through the (possibly corrupted) IDT;
    panics the hypervisor on escalation, producing the crash dump of
    §VI-C.1. *)

val notify_pt_write : t -> Addr.mfn -> unit
(** Invoked by the MMU code after every validated entry write. *)

val exhaust_memory : t -> leave:int -> int
(** The Uncontrolled-Memory-Allocation injector hook: grab free frames
    for the Xen heap until at most [leave] remain, returning how many
    were taken. Models a guest-reachable unbounded-allocation path
    without needing the (unknown) vulnerable code. *)

val sched_tick : t -> Sched.outcome
(** Run one scheduler slice. A stall that outlasts the watchdog
    threshold panics the host ("Watchdog timer detected a hard
    LOCKUP"), turning a hang-state intrusion into a crash — the
    deployment-dependent outcome §IX discusses. *)

(** {1 TLB maintenance}

    Forwarded to the boot CPU's software TLB ({!Paging.Tlb}). The
    hypercall paths that edit page tables ({!Mm}) call these, mirroring
    the flushes real Xen issues; the raw injector deliberately does
    {e not}, which is how a stale translation survives — faithfully. *)

val tlb_flush_all : t -> unit
val tlb_invlpg : t -> cr3:Addr.mfn -> Addr.vaddr -> unit

(** {1 Checkpoint / restore}

    An O(dirty) reset primitive for campaign throughput: [checkpoint]
    captures the full hypervisor state, its memory as a frozen template
    the live memory is forked from in place
    ({!Phys_mem.capture_baseline}); [restore] rolls every piece back,
    copying only the frames dirtied since back from that template — the
    reset a {!fork} does too.

    Only one checkpoint is live per hypervisor at a time — taking a new
    one rebases the memory baseline. A checkpoint can be restored any
    number of times and is only read by [restore], so it is immune to
    mutation by the restored run. [restore] rolls every live domain
    back in place ({!Domain.restore_into}, matched by id), so the
    [Domain.t] records in [t.domains] keep their identity across
    restores; a checkpointed domain missing from the live list comes
    back as a fresh deep copy, and domains created since the checkpoint
    are dropped. *)

type checkpoint

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit

val fork : t -> checkpoint -> t
(** [fork template ck] is a new hypervisor in the state [ck] captured on
    [template], built without re-running boot: physical memory is a
    {!Phys_mem.fork} (frames shared copy-on-write with the template,
    which must have been {!Phys_mem.freeze}d), and CPU, page bookkeeping,
    domains, console, XenStore, scheduler and counters are reconstructed
    from the checkpoint. The checkpoint is only read — it can seed any
    number of forks, concurrently — and remains valid as the fork's own
    [restore] target. *)

(** {1 Hypercall extension table (used by the intrusion injector)} *)

val register_hypercall : t -> number:int -> name:string -> hypercall_handler -> unit
val lookup_hypercall : t -> int -> (string * hypercall_handler) option
