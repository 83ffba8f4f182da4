(** The CPU scheduler: vcpus, a single physical CPU, and the watchdog.

    This substrate carries the largest Table I class — {e Induce a Hang
    State} (20 of the 100 studied CVEs): a guest drives the hypervisor
    into a loop it never leaves (XSA-156's #AC/#DB storm being the
    canonical case), and the pCPU stops making progress for everyone.

    The corresponding erroneous state is a vcpu stuck {e inside the
    hypervisor}; its injector hook is {!hang_vcpu} — the paper's
    "specific component implemented for that end" for states that do
    not live in guest-addressable memory. Whether the hang becomes a
    violation depends on the deployment: with the watchdog enabled the
    host panics (crash); without it the other domains silently starve
    (availability loss). Both are observable by the monitor. *)

type vcpu_state =
  | Runnable
  | Hung_in_hypervisor of string  (** reason; never leaves the pCPU *)

type outcome =
  | Scheduled of int  (** this domain's vcpu ran a slice *)
  | Cpu_stalled of string  (** a hung vcpu holds the pCPU *)
  | Idle

type vcpu = private {
  v_dom : int;
  mutable state : vcpu_state;
  mutable runs : int;  (** completed time slices *)
  v_scheduled : outcome;  (** [Scheduled v_dom], built once: a slice allocates nothing *)
}

type t

val create : ?watchdog_enabled:bool -> ?watchdog_threshold:int -> ?pcpus:int -> unit -> t
(** Defaults: watchdog on, threshold 8 consecutive stalled slices, one
    physical CPU. With [p] pCPUs, each hung vcpu pins one of them: the
    host only stalls outright (and the watchdog only arms) when every
    pCPU is pinned — the SMP deployment choice that turns a total
    freeze into a degradation. *)

val pcpus : t -> int

val watchdog_enabled : t -> bool
val add_vcpu : t -> dom:int -> vcpu
val vcpus : t -> vcpu list
val vcpu_of : t -> dom:int -> vcpu option
val runs_of : t -> dom:int -> int

val tick : t -> outcome
(** One time slice: round-robin over runnable vcpus — unless a hung
    vcpu pins the pCPU, in which case nothing else runs. *)

val stalled_slices : t -> int
(** Consecutive slices lost to a hung vcpu. *)

val watchdog_fired : t -> bool
(** The stall outlasted the threshold (with the watchdog enabled). *)

val remove_vcpu : t -> dom:int -> (unit, Errno.t) result
(** Take the domain's vcpu off the runqueue (pause / teardown). *)

val hang_vcpu : t -> dom:int -> reason:string -> (unit, Errno.t) result
(** The injector hook: mark the domain's vcpu as stuck inside the
    hypervisor ([ENOENT] if the domain has no vcpu). *)

val unhang_vcpu : t -> dom:int -> (unit, Errno.t) result
val hung_vcpus : t -> (int * string) list

(** {1 Checkpointing} *)

type checkpoint

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
