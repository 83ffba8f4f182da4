(** Randomized erroneous-state campaigns (§IV-C).

    "One possibility is to randomize inputs to an injector, creating an
    approach that resembles fuzzing testing but in another level of
    interaction, in a post-attack phase." This module implements that
    idea: each trial synthesizes an erroneous state within a target
    class, injects it through the [arbitrary_access] hypercall, runs an
    activation workload, and classifies what the monitor observed. It
    also implements plain accidental bit flips — the classic SWIFI
    faultload — so intrusion injection can be contrasted with
    fault injection on the same system (§II).

    Campaigns are deterministic in their seed, so the same trial
    sequence can be replayed against different hypervisor versions for
    comparison (the risk-assessment scenario of §III-C). Trials draw
    from independent per-trial PRNG streams derived from the seed and
    the trial index, so the result is insensitive to how trials are
    dealt to workers. *)

type target_class =
  | Idt_gates  (** overwrite descriptor-table handler words *)
  | Page_table_entries  (** forge random PTEs in the attacker's tables *)
  | M2p_entries  (** corrupt machine-to-physical entries *)
  | Arbitrary_physical  (** random word anywhere in RAM *)
  | Soft_error_bit_flip  (** a single accidental bit flip (not an IM) *)
  | Component_hooks
      (** the non-memory injector hooks: vcpu hang, interrupt storm,
          management-plane tampering, allocator exhaustion *)

val target_to_string : target_class -> string
val all_targets : target_class list
val intrusion_targets : target_class list
(** [all_targets] minus the accidental-fault class. *)

type outcome_class =
  | Crashed  (** hypervisor panic *)
  | Violated  (** non-crash security violation(s) *)
  | State_only  (** state audited present, no violation: handled *)
  | No_effect  (** nothing observable *)
  | Refused  (** the injector rejected the target *)

val outcome_to_string : outcome_class -> string
val all_outcomes : outcome_class list

type trial = {
  index : int;
  target : target_class;
  t_addr : int64;
  t_value : int64;
  outcome : outcome_class;
  t_violations : Monitor.violation list;
}

type summary = {
  s_version : Version.t;
  s_seed : int64;
  s_trials : int;
  tally : (outcome_class * int) list;  (** all five classes, in order *)
  trials : trial list;
}

(** {1 Trials}

    {!Campaign_scheduler} is the driver: it deals trials to workers,
    one long-lived testbed per worker and version, and each trial runs
    on {!Campaign.trial}, the executor every other trial runs on. *)

type worker = Testbed.t

val make_worker : ?pooled:bool -> Version.t -> worker
(** One campaign testbed. [pooled] (default false) forks it from the
    warm template pool ({!Testbed.create_pooled}) instead of booting
    fresh — observably equivalent, O(metadata) instead of a full
    build. *)

val run_one : worker -> seed:int64 -> targets:target_class list -> int -> trial
(** Run trial [index] as a driver of {!Campaign.trial}: on the pristine
    testbed, synthesize a state in a target class, inject it, activate,
    observe, classify. Deterministic in [(seed, index, targets)] alone —
    the positional-determinism contract sharded runs rely on.

    A coverage collector attached to the testbed's trace holds the
    trial's map after the call ({!Campaign.trial} clears it at the
    pristine point and notes each violation under the domain it was
    observed in), so the map depends only on [(seed, index, targets)]. *)

val tally_of : trial list -> (outcome_class * int) list
(** Outcome counts in [all_outcomes] order. *)

val render : summary list -> string
