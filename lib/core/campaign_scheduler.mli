(** The batching campaign scheduler: one work queue over one worker pool,
    and the only driver of randomized campaigns ({!Random_campaign}
    supplies the trial).

    Running each version's campaign as its own sharded job pays a pool
    spin-up per version and drains workers at every version boundary.
    This module instead flattens versions x trials into a single queue of
    independent jobs dealt in chunks ({!Shard}); each worker keeps the
    testbed table {!Campaign.run_matrix} keeps ({!Campaign.Make.testbeds}):
    one testbed per version, forked copy-on-write from the warm template
    pool on first use and reused for every trial of that version it is
    dealt.

    Job [j] is (version [j / trials], trial [j mod trials]). Trials are
    deterministic in [(seed, index, targets)] alone, so scheduling is
    invisible in the output. *)

val run :
  seed:int64 ->
  ?targets:Random_campaign.target_class list ->
  ?workers:int ->
  ?coverage:Coverage.map ref ->
  trials:int ->
  Version.t list ->
  Random_campaign.summary list
(** Materializing scheduler: one summary per version, byte-identical to
    running that version's trials in order on one freshly booted
    testbed, whatever the worker count. Defaults: intrusion targets,
    1 worker. Raises [Invalid_argument] on no versions, no
    targets or [trials <= 0].

    [coverage] accumulates every trial's coverage map (the collector
    {!Campaign.Make.trial} fills, each violation under the domain it
    was observed in) into the referenced cumulative map by a
    deterministic positional fold; the final map is byte-identical
    whatever the worker count. *)

type stream_stats = {
  st_version : Version.t;
  st_trials : int;
  st_tally : (Random_campaign.outcome_class * int) list;
      (** all five classes, in {!Random_campaign.all_outcomes} order *)
}

val run_streamed :
  seed:int64 ->
  ?targets:Random_campaign.target_class list ->
  ?workers:int ->
  ?coverage:Coverage.map ref ->
  trials:int ->
  Version.t list ->
  stream_stats list
(** Streaming scheduler for runs too large to materialize: each trial
    is reduced to its outcome tally on the spot and dropped, so peak
    memory is flat in [trials] (worker testbeds plus one counter
    table). [st_tally] equals the [tally] field {!run} would produce
    for the same arguments.

    [coverage] merges per-trial maps into the referenced map inside the
    streaming fold; because the merge is a bitwise OR (commutative,
    idempotent), the cumulative map equals {!run}'s byte for byte even
    though the streamed merge order is scheduler-dependent. *)
