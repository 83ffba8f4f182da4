(* The batching campaign scheduler: versions x trials flattened into one
   work queue over a single worker pool.

   Sharding each version's campaign separately (the pre-scheduler shape)
   pays one pool spin-up per version and leaves workers idle at every
   version boundary. Flattening instead gives one queue of
   |versions| * trials independent jobs, dealt in chunks; each worker
   lazily forks one testbed per version it actually meets (COW, from the
   warm template pool) and reuses it across every trial of that version
   it is dealt.

   Determinism: job j is (version j/trials, trial j mod trials), and a
   trial depends only on (seed, trial index, targets) plus a pristine
   testbed — so the materialized output regroups into per-version
   summaries byte-identical to running each version's trials in order
   on a freshly booted testbed (test/golden_random.ml pins them). *)

module RC = Random_campaign

let check_args ~trials ~targets versions =
  if versions = [] then invalid_arg "Campaign_scheduler: no versions";
  if trials <= 0 then invalid_arg "Campaign_scheduler: trials must be positive";
  if targets = [] then invalid_arg "Campaign_scheduler: no targets"

(* Job j: trial [j mod trials] of version [j / trials] on the worker's
   testbed table ({!Campaign.testbeds}, one pooled testbed per
   version), with the trial's coverage map when collectors are
   attached. *)
let job ~seed ~targets ~trials versions testbed j =
  let tb = testbed versions.(j / trials) in
  let t = RC.run_one tb ~seed ~targets (j mod trials) in
  (t, Option.map Coverage.snapshot (Trace.coverage (Substrate_xen.trace tb)))

let run ~seed ?(targets = RC.intrusion_targets) ?workers ?coverage ~trials versions =
  check_args ~trials ~targets versions;
  let varr = Array.of_list versions in
  let n = Array.length varr * trials in
  let pairs =
    Shard.map_init ?workers
      ~init:(Campaign.testbeds ~coverage:(coverage <> None))
      (fun testbed j () -> job ~seed ~targets ~trials varr testbed j)
      (List.init n (fun _ -> ()))
  in
  (* merge per-trial maps into the caller's cumulative map in job order —
     a deterministic fold over the positional results, identical
     whatever the worker count (and, since merge is a commutative OR,
     identical to any other order too) *)
  (match coverage with
  | None -> ()
  | Some acc ->
      List.iter
        (fun (_, m) -> match m with Some m -> acc := Coverage.merge !acc m | None -> ())
        pairs);
  let rows = List.map fst pairs in
  (* jobs were dealt flattened but land positionally: version vi owns
     the contiguous slice [vi*trials, (vi+1)*trials) *)
  List.mapi
    (fun vi version ->
      let ts = List.filteri (fun j _ -> j / trials = vi) rows in
      { RC.s_version = version; s_seed = seed; s_trials = trials; tally = RC.tally_of ts;
        trials = ts })
    versions

type stream_stats = {
  st_version : Version.t;
  st_trials : int;
  st_tally : (RC.outcome_class * int) list;
}

let outcome_slot = function
  | RC.Crashed -> 0
  | RC.Violated -> 1
  | RC.State_only -> 2
  | RC.No_effect -> 3
  | RC.Refused -> 4

let n_outcomes = List.length RC.all_outcomes

let run_streamed ~seed ?(targets = RC.intrusion_targets) ?workers ?coverage ~trials
    versions =
  check_args ~trials ~targets versions;
  let varr = Array.of_list versions in
  let n = Array.length varr * trials in
  (* streaming fold: each trial reduces to (version, outcome) and is
     dropped; peak memory is the worker testbeds plus one counter table,
     flat in [trials] — the shape a million-trial run needs. The
     coverage merge rides the same fold: bitwise OR is commutative and
     idempotent, so the merge order the scheduler happens to deliver is
     invisible in the cumulative map — the order-insensitivity
     {!Shard.fold_init} requires. *)
  let counts =
    Shard.fold_init ?workers ~n
      ~init:(Campaign.testbeds ~coverage:(coverage <> None))
      ~f:(fun testbed j -> (j / trials, job ~seed ~targets ~trials varr testbed j))
      ~merge:(fun counts (vi, (t, m)) ->
        let slot = (vi * n_outcomes) + outcome_slot t.RC.outcome in
        counts.(slot) <- counts.(slot) + 1;
        (match (coverage, m) with
        | Some acc, Some m -> acc := Coverage.merge !acc m
        | _ -> ());
        counts)
      (Array.make (Array.length varr * n_outcomes) 0)
  in
  List.mapi
    (fun vi version ->
      {
        st_version = version;
        st_trials = trials;
        st_tally =
          List.map (fun o -> (o, counts.((vi * n_outcomes) + outcome_slot o))) RC.all_outcomes;
      })
    versions
