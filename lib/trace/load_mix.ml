(* Deterministic background-load mixes. See load_mix.mli. *)

type t = { name : string; ops_per_tick : int }

let none = { name = "none"; ops_per_tick = 0 }
let default = { name = "default"; ops_per_tick = 2 }
let heavy = { name = "heavy"; ops_per_tick = 6 }
let all = [ none; default; heavy ]
let to_string t = t.name
let of_string s = List.find_opt (fun m -> m.name = s) all
let ops_per_tick t = t.ops_per_tick

(* splitmix64: the per-domain stream generator. Chosen because one
   int64 of state is trivial to re-seed in place on reset, which is
   what keeps pooled testbeds and replays byte-identical to fresh
   boots. *)

type stream = { mutable s : int64 }

let seed_for_domain domid =
  Int64.mul (Int64.of_int (domid + 1)) 0x9E3779B97F4A7C15L

let stream ~seed = { s = seed }
let reseed st ~seed = st.s <- seed

let next st =
  st.s <- Int64.add st.s 0x9E3779B97F4A7C15L;
  let z = st.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
