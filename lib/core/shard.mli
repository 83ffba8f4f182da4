(** Deterministic work sharding over OCaml 5 domains.

    The campaign engines shard independent trials across domains; the
    contract that makes this invisible to callers is {e positional
    determinism}: the result list matches the input list element-wise,
    regardless of worker count or scheduling, so a sharded run is
    byte-identical to the sequential one as long as [f] itself depends
    only on its per-worker state, the item and its index.

    Work is dealt in chunks (one atomic fetch-and-add per chunk, not per
    item), so a million-trial queue spends its time in trials, not in
    counter contention. *)

val auto_workers : unit -> int
(** The worker count [--workers auto] resolves to:
    [Stdlib.Domain.recommended_domain_count ()] clamped to [\[1, 8\]] —
    beyond a few domains the campaign allocation rate makes the
    stop-the-world minor GC the bottleneck, so more workers hurt. *)

val workers_of_string : string -> (int, string) result
(** Parse a CLI worker spec: ["auto"] resolves via {!auto_workers}, any
    positive integer is taken literally. *)

val map_init : ?workers:int -> init:(unit -> 's) -> ('s -> int -> 'a -> 'b) -> 'a list -> 'b list
(** [map_init ~workers ~init f xs] maps [f state index x] over [xs].
    Each worker calls [init] once and threads the resulting state
    through the items it happens to process (e.g. one testbed per
    worker). [workers] defaults to 1, which runs sequentially on the
    calling domain — the reference behaviour sharded runs must match.
    Raises [Invalid_argument] if [workers < 1]. If any worker raises,
    the remaining workers stop dealing new chunks, every domain is
    joined, and the {e first} exception is re-raised on the caller. *)

val fold_init :
  ?workers:int ->
  n:int ->
  init:(unit -> 's) ->
  f:('s -> int -> 'b) ->
  merge:('acc -> 'b -> 'acc) ->
  'acc ->
  'acc
(** [fold_init ~n ~init ~f ~merge acc0] folds [f state index] for every
    index in [0, n), merging results into one accumulator — the
    streaming counterpart of {!map_init} for runs too large to
    materialize (a million-trial campaign keeps a tally, not a list).
    No per-item list or array is ever built, so peak memory is flat in
    [n]. With [workers > 1], results are merged in nondeterministic
    order: [merge] must be commutative-monoidal over the results (true
    of outcome tallies). Exceptions propagate as in {!map_init}. *)
