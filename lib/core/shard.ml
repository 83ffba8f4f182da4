(* Deterministic work sharding over OCaml 5 domains.

   Results land in an array indexed by input position, so the output
   order is the input order no matter which worker ran which item —
   byte-identical to the sequential run by construction. Work is dealt
   in chunks off an atomic counter (dynamic load balancing with one
   fetch-and-add per chunk rather than per item), which is safe exactly
   because items are independent: campaign trials carry their own PRNG
   seed and their own testbed. *)

let worker_count = function
  | Some w when w >= 1 -> w
  | Some _ -> invalid_arg "Shard: workers must be >= 1"
  | None -> 1

(* Cap the automatic choice: beyond a few workers the testbeds' combined
   allocation rate makes the stop-the-world minor GC the bottleneck. *)
let max_auto_workers = 8

let auto_workers () =
  max 1 (min (Stdlib.Domain.recommended_domain_count ()) max_auto_workers)

let workers_of_string s =
  match s with
  | "auto" -> Ok (auto_workers ())
  | s -> (
      (* name the flag in the error: this string surfaces verbatim as a
         CLI diagnostic for --workers on every command that shards *)
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n ->
          Error
            (Printf.sprintf "--workers must be a positive integer or \"auto\", got %d" n)
      | None ->
          Error
            (Printf.sprintf "--workers must be a positive integer or \"auto\", got %S" s))

(* Chunks amortize counter contention at high trial counts; small enough
   chunks keep the tail balanced. ~8 chunks per worker, capped so a
   million-trial queue still rebalances. *)
let chunk_size ~workers n = max 1 (min 1024 (n / (workers * 8)))

(* The parallel engine shared by [map_init] (positional results) and
   [fold_init] (streaming accumulation). [run_chunk state start stop]
   processes items [start, stop); the first worker exception wins and is
   re-raised on the caller after every domain has parked. *)
let drive ~workers ~n ~init ~run_chunk =
  let next = Atomic.make 0 in
  let chunk = chunk_size ~workers n in
  let failed : exn option Atomic.t = Atomic.make None in
  let body () =
    match
      let state = init () in
      let rec loop () =
        if Atomic.get failed = None then begin
          let start = Atomic.fetch_and_add next chunk in
          if start < n then begin
            run_chunk state start (min n (start + chunk));
            loop ()
          end
        end
      in
      loop ()
    with
    | () -> ()
    | exception e -> ignore (Atomic.compare_and_set failed None (Some e))
  in
  (* Stdlib.Domain explicitly: the -open'd Ii_xen shadows Domain *)
  let spawned = Array.init (min workers n - 1) (fun _ -> Stdlib.Domain.spawn body) in
  body ();
  Array.iter Stdlib.Domain.join spawned;
  match Atomic.get failed with Some e -> raise e | None -> ()

let map_init ?workers ~init f xs =
  let workers = worker_count workers in
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else if workers = 1 then
    (* sequential fast path: no domains, same per-worker state contract *)
    let state = init () in
    Array.to_list (Array.mapi (fun i x -> f state i x) items)
  else begin
    let out = Array.make n None in
    drive ~workers ~n ~init ~run_chunk:(fun state start stop ->
        for i = start to stop - 1 do
          out.(i) <- Some (f state i items.(i))
        done);
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           (* unreachable: [drive] re-raised if any chunk was abandoned *)
           | None -> failwith "Shard.map_init: missing result")
         out)
  end

let fold_init ?workers ~n ~init ~f ~merge acc0 =
  if n < 0 then invalid_arg "Shard.fold_init: n must be >= 0";
  let workers = worker_count workers in
  if n = 0 then acc0
  else if workers = 1 then begin
    let state = init () in
    let acc = ref acc0 in
    for i = 0 to n - 1 do
      acc := merge !acc (f state i)
    done;
    !acc
  end
  else begin
    (* merge under a lock, once per item but contended once per chunk in
       practice (the lock is uncontended within a worker's chunk run);
       [merge] must be insensitive to merge order — tallies are *)
    let lock = Mutex.create () in
    let acc = ref acc0 in
    drive ~workers ~n ~init ~run_chunk:(fun state start stop ->
        let rs = ref [] in
        for i = start to stop - 1 do
          rs := f state i :: !rs
        done;
        let rs = List.rev !rs in
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () -> acc := List.fold_left merge !acc rs));
    !acc
  end
