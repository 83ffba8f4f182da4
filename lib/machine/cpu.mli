(** CPU-level memory access and exception delivery.

    Three privilege contexts exist:
    - [Hyp]: hypervisor code; resolves addresses through Xen's direct
      map, bypassing guest page tables (this is the privilege the
      intrusion injector executes with);
    - [Kernel]: PV guest kernel; walks the guest's CR3 with supervisor
      semantics, filtered by the address-space layout;
    - [User]: guest user space; additionally requires the US flag.

    Exception delivery reads gates from the in-memory IDT. A corrupted
    gate makes the first fault escalate to a double fault; Xen's double
    fault handler panics — reproducing the XSA-212-crash violation. *)

type ring = Hyp | Kernel | User

type t

val create : ?tracer:Trace.t -> Phys_mem.t -> hardened:bool -> t
(** [tracer] is wired into the software TLB so flushes and invlpgs
    are counted, and recorded while the ring is enabled. *)

val mem : t -> Phys_mem.t
val hardened : t -> bool
val set_idt : t -> Addr.mfn -> unit
val idt_mfn : t -> Addr.mfn option

val sidt : t -> Addr.vaddr
(** Linear (direct-map) address of the IDT, as the unprivileged [sidt]
    instruction leaks it. Raises [Failure] when no IDT is installed. *)

val register_handler : t -> Addr.vaddr -> string -> unit
(** Declare a handler address valid (Xen installs its entry points). *)

val handler_name : t -> Addr.vaddr -> string option

val handlers_dump : t -> (Addr.vaddr * string) list
(** The registered handler table, for checkpointing. *)

val handlers_restore : t -> (Addr.vaddr * string) list -> unit
(** Replace the table with a previous {!handlers_dump}. Change-gated:
    a no-op when this very list (compared by physical identity) was the
    last one restored and no handler was registered since. *)

(** {1 Software TLB}

    Guest-privilege translations ([Kernel]/[User] rings) go through a
    per-CPU walk cache; [Hyp] accesses use the direct map and never
    touch it. The MMU code invalidates through these hooks exactly where
    real Xen issues [invlpg]/CR3 reloads. *)

val tlb : t -> Paging.Tlb.t
val tlb_flush_all : t -> unit
val tlb_invlpg : t -> cr3:Addr.mfn -> Addr.vaddr -> unit

(** {1 Memory access}

    Each access resolves its address once to an immediate-int machine
    address — through the direct map for [Hyp], through the TLB and the
    layout filter otherwise — and moves bytes by (frame, offset). A
    range crossing a page boundary translates page by page and succeeds
    only when every page does. Every access charges one [Guest_mem_op]
    on the machine's virtual clock. *)

type 'a access_result = ('a, Paging.fault) result

val read_u64 : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int64 access_result
val write_u64 : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int64 -> unit access_result
val read_bytes : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> int -> bytes access_result

val read_into :
  t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> bytes -> int -> int -> unit access_result
(** [read_into t ~ring ~cr3 va buf pos len] is {!read_bytes} into
    [buf] at [pos]: the same translations, faults and charge, with no
    buffer allocated. Raises [Invalid_argument] when the range is not
    within [buf]. *)

val write_bytes : t -> ring:ring -> cr3:Addr.mfn -> Addr.vaddr -> bytes -> unit access_result

(** {1 Remap window scans}

    A scan that maps frame after frame under one window VA repeats three
    kernel-ring accesses per frame: [write_u64] of the frame's leaf PTE
    at a slot VA, [tlb_invlpg] of the window VA, and [read_into]
    through it. Once the first frame has gone through them, {!remap}
    captures the window's walk and {!remap_read_into} does each further
    frame in one call, with the same effects. *)

type remap

val remap : t -> cr3:Addr.mfn -> slot:Addr.vaddr -> window:Addr.vaddr -> remap option
(** The scan state, or [None] when the three accesses cannot be
    fast-forwarded (see {!Paging.remap}; both VAs must also be
    canonical and let through by the layout filter). Valid for one scan:
    between its steps, no store but the slot's may reach the window's
    page tables. *)

val remap_read_into : remap -> leaf:int -> bytes -> int -> int -> bool
(** [remap_read_into r ~leaf buf pos len]: when it returns [true], the
    effects of [write_u64 ~ring:Kernel slot (Int64.of_int leaf)],
    [tlb_invlpg window] and [read_into ~ring:Kernel window buf pos len]
    — virtual-clock charges, TLB stats and contents, tracer counters,
    the slot's frame dirtied and unshared, the frame's head in [buf].
    [false], with nothing done, when {!Paging.remap_step} refuses or the
    read would be empty or cross a page; the caller then makes the three
    accesses. Allocates nothing. Raises [Invalid_argument] when the
    range is not within [buf]. *)

(** {1 Exceptions} *)

type exception_outcome =
  | Handled of { vector : int; handler : Addr.vaddr; handler_label : string }
  | Double_fault_panic of { first_vector : int; bad_handler : int64 }
      (** the first handler was corrupt; Xen's double-fault handler ran
          and the hypervisor must panic *)
  | Triple_fault
      (** both the first and the double-fault gates were corrupt *)

val deliver_exception : t -> vector:int -> exception_outcome
