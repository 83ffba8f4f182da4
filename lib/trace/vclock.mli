(** A deterministic virtual clock: simulated time for a machine whose
    real execution takes however long the host takes.

    The clock is a monotonic nanosecond counter advanced by a {e cost
    model}: every modelled operation (a hypercall dispatch, one level
    of a page walk, a TLB hit, ...) charges a fixed number of virtual
    nanoseconds. Because the charge sites sit on the same deterministic
    execution paths the tracer instruments, two runs of the same trial
    read identical virtual timestamps — and a replayed boundary stream
    reproduces them byte-for-byte ({!Trace_driver.replay}).

    One clock is owned by each machine (embedded in its {!Trace.t}) and
    travels with machine state: checkpointed, restored, and inherited
    across testbed forks, so pooled campaigns stay byte-identical to
    fresh boots.

    The clock can be {e detached}: charges become no-ops and {!now}
    stays frozen. Detaching never changes machine behaviour — result
    rows differ only in their virtual-time column — which is what the
    vclock-off ≡ vclock-on neutrality tests pin. *)

(** {1 Cost model} *)

module Cost_model : sig
  (** Virtual nanoseconds charged per operation. The defaults are
      calibrated against real-time hypercall dispatch measurements
      (perfbench's [hypercall.dispatch_ns]); see ARCHITECTURE.md
      "Virtual time" for the table. *)
  type t = {
    hypercall_dispatch : int64;  (** one hypercall dispatch (entry to return) *)
    page_walk_step : int64;  (** one level of a page-table walk *)
    tlb_hit : int64;  (** translation served from the software TLB *)
    tlb_miss : int64;  (** TLB lookup that fell through to a walk *)
    pte_install : int64;  (** one validated PTE write ([Mm.apply_one]) *)
    fault_delivery : int64;  (** delivering one exception to a guest *)
    guest_mem_op : int64;  (** one guest virtual-memory access *)
    xenstore_write : int64;  (** one xenstore write transaction *)
    netsim_cmd : int64;  (** one simulated network command round-trip *)
    vmi_scan_frame : int64;
        (** one frame read by a VMI detector scan. Accrued on the
            scanner's own meter, never on the machine clock: scans are
            side-effect-free and replay does not re-run them. *)
    kvm_ioctl : int64;  (** one KVM injector ioctl *)
    vm_entry : int64;  (** one KVM VM entry (or in-guest fault delivery) *)
    grant_map : int64;  (** one cross-domain grant map/unmap *)
    evtchn_send : int64;  (** one event-channel notification *)
    dm_io : int64;  (** one device-model I/O request (FDC command round) *)
  }

  val default : t

  val to_assoc : t -> (string * int64) list
  (** [(key, ns)] pairs in a stable order; the keys are the field
      names above and double as the config-file keys. *)

  val to_string : t -> string
  (** Render as the config-file syntax {!of_string} accepts. *)

  val of_string : ?base:t -> string -> (t, string) result
  (** Parse a cost-model config: one [key = ns] per line, [#] comments
      and blank lines ignored. Unknown keys and non-integer, negative or
      above-[max_int] values are errors (never raises). Missing keys keep
      the value from [base] (default: {!default}). *)

  val load : ?base:t -> string -> (t, string) result
  (** {!of_string} over a file's contents; I/O failures are [Error]. *)
end

(** {1 Operations} *)

(** The modelled operations, one per {!Cost_model.t} entry. *)
type op =
  | Hypercall_dispatch
  | Page_walk_step
  | Tlb_hit
  | Tlb_miss
  | Pte_install
  | Fault_delivery
  | Guest_mem_op
  | Xenstore_write
  | Netsim_cmd
  | Vmi_scan_frame
  | Kvm_ioctl
  | Vm_entry
  | Grant_map
  | Evtchn_send
  | Dm_io

val op_name : op -> string
val cost : Cost_model.t -> op -> int64

(** {1 The clock} *)

type t

val create : ?model:Cost_model.t -> unit -> t
(** At 0 ns, attached, with [model] (default {!Cost_model.default}). *)

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val set : t -> int64 -> unit
(** Restore the counter (checkpoint/restore, fork inheritance). *)

val attached : t -> bool

val set_attached : t -> bool -> unit
(** Detached clocks ignore {!charge}; {!now} stays frozen. *)

val model : t -> Cost_model.t
val set_model : t -> Cost_model.t -> unit

val charge : t -> op -> unit
(** Advance by the model's cost for [op] (no-op when detached). *)

val charge_n : t -> op -> int -> unit
(** Advance by [n] times the cost for [op]. *)
