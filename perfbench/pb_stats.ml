(* Measurement primitives shared by the three workloads: a monotonic
   ns clock, growable sample buffers with quantiles, named spans that
   record host ns and minor-heap words around one call, Gc.quick_stat
   deltas, and a runtime_events reader for per-domain GC pauses. *)

let now_ns () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* --- samples ------------------------------------------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* Quantile by linear interpolation between closest ranks (the
   "inclusive" method); 0 for an empty buffer. *)
let quantile s q =
  if s.n = 0 then 0.
  else begin
    let b = Array.sub s.a 0 s.n in
    Array.sort compare b;
    let pos = q *. float_of_int (s.n - 1) in
    let i = int_of_float pos in
    if i >= s.n - 1 then b.(s.n - 1) else b.(i) +. ((pos -. float_of_int i) *. (b.(i + 1) -. b.(i)))
  end

let median s = quantile s 0.5

(* --- spans --------------------------------------------------------------- *)

(* Spans are kept in memory, keyed by metric name, as duration samples
   (host ns); [~words] names a second series that records the minor-heap
   words the call allocated on the calling domain. [spanned] sums every
   span's ns, so a caller can read off how much of a trial the spans
   cover. *)
type spans = { tbl : (string, samples) Hashtbl.t; mutable spanned : float }

let spans () = { tbl = Hashtbl.create 32; spanned = 0. }

let series sp name =
  match Hashtbl.find_opt sp.tbl name with
  | Some s -> s
  | None ->
      let s = samples () in
      Hashtbl.replace sp.tbl name s;
      s

let span ?words sp name f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let dt = elapsed_ns t0 in
  sp.spanned <- sp.spanned +. dt;
  add (series sp name) dt;
  Option.iter (fun w -> add (series sp w) (Gc.minor_words () -. w0)) words;
  r

(* [span] when a span table is given, a plain call otherwise: the same
   code path serves the traced and the untraced measurement. *)
let maybe_span ?words sp name f = match sp with Some sp -> span ?words sp name f | None -> f ()

let note sp name x = add (series sp name) x

(* --- GC ------------------------------------------------------------------ *)

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  minor_words : float;
}

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
  }

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Per-domain GC pauses from the runtime's own event ring. Minor
   collections are timed from EV_MINOR begin to end on each domain;
   stop-the-world time sums every domain's EV_MINOR and EV_MAJOR_GC_STW
   intervals (both are stop-the-world sections in OCaml 5). The ring is
   polled between units of work, so nothing runs concurrently with the
   program under test. *)
module Gc_events = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor_pause_ns : samples;
    stw_ns : float ref;
    lost : int ref;
  }

  let create () =
    Runtime_events.start ();
    let minor_pause_ns = samples () and stw_ns = ref 0. and lost = ref 0 in
    let open_minor = Hashtbl.create 8 and open_stw = Hashtbl.create 8 in
    let ns ts = Runtime_events.Timestamp.to_int64 ts in
    let close tbl dom ts k =
      match Hashtbl.find_opt tbl dom with
      | Some t0 ->
          Hashtbl.remove tbl dom;
          k (Int64.to_float (Int64.sub (ns ts) t0))
      | None -> ()
    in
    let runtime_begin dom ts = function
      | Runtime_events.EV_MINOR -> Hashtbl.replace open_minor dom (ns ts)
      | Runtime_events.EV_MAJOR_GC_STW -> Hashtbl.replace open_stw dom (ns ts)
      | _ -> ()
    in
    let runtime_end dom ts = function
      | Runtime_events.EV_MINOR ->
          close open_minor dom ts (fun d ->
              add minor_pause_ns d;
              stw_ns := !stw_ns +. d)
      | Runtime_events.EV_MAJOR_GC_STW -> close open_stw dom ts (fun d -> stw_ns := !stw_ns +. d)
      | _ -> ()
    in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; minor_pause_ns; stw_ns; lost }

  (* Drain everything emitted so far; call between units of measured
     work. *)
  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let stop t =
    poll t;
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ()
end

(* How long a closed loop runs: a fixed number of rounds (samples whose
   counts must not depend on machine speed), or until a deadline. Round
   0 is a warm-up — first forks, first allocations, heap growth — that
   is checked but not timed, so a timed loop runs at least two rounds. *)
type until = Rounds of int | Seconds of float

let keep_going until ~start round =
  match until with
  | Rounds n -> round < n
  | Seconds s -> round < 2 || elapsed_ns start < s *. 1e9

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

type loop = { latency : samples; rates : samples; attempted : int; failed : int }

(* A closed loop over rounds of [n] units of work, in an order the seed
   shuffles afresh every round. [call i] is timed; [check i result dt]
   runs untimed and says whether the unit's output checks held. A unit
   that raises counts as failed. [latency] (host ns per unit) and
   [rates] (units per busy second, one per round) cover the timed
   rounds only. *)
let closed_loop ~n ~seed ~until ~call ~check =
  let latency = samples () and rates = samples () in
  let attempted = ref 0 and failed = ref 0 in
  let start = now_ns () in
  let round = ref 0 in
  while keep_going until ~start !round do
    let order = Array.init n Fun.id in
    shuffle (Random.State.make [| seed; !round |]) order;
    let busy = ref 0. in
    Array.iter
      (fun i ->
        incr attempted;
        let t0 = now_ns () in
        match call i with
        | r ->
            let dt = elapsed_ns t0 in
            busy := !busy +. dt;
            if !round > 0 then add latency dt;
            if not (check i r dt) then incr failed
        | exception e ->
            prerr_endline ("perfbench: unit of work raised " ^ Printexc.to_string e);
            incr failed)
      order;
    if !round > 0 then add rates (float_of_int n /. (!busy /. 1e9));
    incr round
  done;
  { latency; rates; attempted = !attempted; failed = !failed }
