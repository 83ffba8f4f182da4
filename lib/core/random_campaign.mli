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
    comparison (the risk-assessment scenario of §III-C). *)

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

(** {1 Worker state}

    The building blocks {!run} itself is made of, exported so the
    campaign scheduler ({!Campaign_scheduler}) can drive trials from a
    flattened multi-version work queue: one long-lived testbed per
    worker (reset between trials, its own scan cache riding along) and
    the memoized pristine before-snapshot. *)

type worker

val make_worker : ?pooled:bool -> Version.t -> worker
(** Per-worker campaign state around one testbed. [pooled] (default
    false) forks the testbed from the warm template pool
    ({!Testbed.create_pooled}) instead of booting fresh — observably
    equivalent, O(metadata) instead of a full build. *)

val run_one : worker -> seed:int64 -> targets:target_class list -> int -> trial
(** Run trial [index] on a pristine testbed (reset + injector install +
    memoized before-snapshot). Deterministic in [(seed, index, targets)]
    alone — the positional-determinism contract sharded runs rely on. *)

val attach_coverage : worker -> unit
(** Attach a fresh {!Coverage} collector to the worker testbed's trace;
    subsequent {!run_one_cov} calls return per-trial maps. *)

val run_one_cov :
  worker -> seed:int64 -> targets:target_class list -> int -> trial * Coverage.map option
(** {!run_one} plus the trial's coverage map when the worker has a
    collector attached ({!attach_coverage}). The collector is cleared at
    the pristine point (after reset + injector install, exactly where
    {!Campaign.Make.run} clears its own), so the map depends only on
    [(seed, index, targets)] — never on the worker, its fork origin, or
    scheduling. *)

val tally_of : trial list -> (outcome_class * int) list
(** Outcome counts in [all_outcomes] order. *)

val run :
  ?seed:int64 -> ?trials:int -> ?targets:target_class list -> ?workers:int ->
  Version.t -> summary
(** Defaults: seed 42, 60 trials, all intrusion targets, 1 worker.

    Each trial runs against a pristine testbed: one testbed per worker
    is created up front and rolled back between trials with
    {!Testbed.reset} — O(dirty pages) instead of the boot per trial (or
    per crash) a real campaign pays to power-cycle the machine.

    Trials draw from independent per-trial PRNG streams derived from
    [seed] and the trial index, so the campaign is deterministic in its
    seed {e and} insensitive to [workers]: a sharded run returns
    byte-identical summaries to the sequential one. *)

val compare_versions :
  ?seed:int64 -> ?trials:int -> ?targets:target_class list -> ?workers:int ->
  Version.t list -> summary list
(** The same trial sequence against each version. *)

val render : summary list -> string
