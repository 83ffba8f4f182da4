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

    A model that prices every operation at 0 ns stops the clock
    without changing machine behaviour — result rows differ only in
    their virtual-time column — which is what the neutrality tests pin. *)

(** {1 Operations} *)

(** The modelled operations, each priced by a {!Cost_model.t}. *)
type op =
  | Hypercall_dispatch  (** one hypercall dispatch (entry to return) *)
  | Page_walk_step  (** one level of a page-table walk *)
  | Tlb_hit  (** translation served from the software TLB *)
  | Tlb_miss  (** TLB lookup that fell through to a walk *)
  | Pte_install  (** one validated PTE write ([Mm.apply_one]) *)
  | Fault_delivery  (** delivering one exception to a guest *)
  | Guest_mem_op  (** one guest virtual-memory access *)
  | Xenstore_write  (** one xenstore write transaction *)
  | Netsim_cmd  (** one simulated network command round-trip *)
  | Vmi_scan_frame
      (** one frame read by a VMI detector scan. Accrued on the
          scanner's own meter, never on the machine clock: scans are
          side-effect-free and replay does not re-run them. *)
  | Kvm_ioctl  (** one KVM injector ioctl *)
  | Vm_entry  (** one KVM VM entry (or in-guest fault delivery) *)
  | Grant_map  (** one cross-domain grant map/unmap *)
  | Evtchn_send  (** one event-channel notification *)
  | Dm_io  (** one device-model I/O request (FDC command round) *)

val op_name : op -> string
(** The operation's config-file key: its constructor in snake case
    ([Tlb_hit] is ["tlb_hit"]). *)

(** {1 Cost model} *)

module Cost_model : sig
  (** Virtual nanoseconds charged per {!op}. The defaults are
      calibrated against real-time hypercall dispatch measurements
      (perfbench's [hypercall.dispatch_ns]); see ARCHITECTURE.md
      "Virtual time" for the table. *)
  type t

  val default : t

  val to_assoc : t -> (string * int64) list
  (** [(key, ns)] pairs in {!op} declaration order; the keys are the
      {!op_name}s and double as the config-file keys. *)

  val to_string : t -> string
  (** Render as the config-file syntax {!of_string} accepts. *)

  val of_string : string -> (t, string) result
  (** Parse a cost-model config: one [key = ns] per line, [#] comments
      and blank lines ignored. Unknown keys and non-integer, negative or
      above-[max_int] values are errors (never raises). Missing keys keep
      their {!default}. *)

  val load : string -> (t, string) result
  (** {!of_string} over a file's contents; I/O failures are [Error].
      Every error names the file. *)
end

val cost : Cost_model.t -> op -> int64

(** {1 The clock} *)

type t

val create : ?model:Cost_model.t -> unit -> t
(** At 0 ns, with [model] (default {!Cost_model.default}). *)

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val set : t -> int64 -> unit
(** Restore the counter (checkpoint/restore, fork inheritance). *)

val model : t -> Cost_model.t
val set_model : t -> Cost_model.t -> unit

val charge : t -> op -> unit
(** Advance by the model's cost for [op]. *)

val charge_n : t -> op -> int -> unit
(** Advance by [n] times the cost for [op]. *)
