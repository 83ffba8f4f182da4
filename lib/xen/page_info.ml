type ptype = PGT_none | PGT_writable | PGT_l1 | PGT_l2 | PGT_l3 | PGT_l4 | PGT_seg

(* One int per frame, indexed by mfn: bits 0-2 the ptype code
   ({!ptype_code}), bit 3 validated, bit 4 pinned, then the type count
   and the reference count, 29 bits each. *)
type t = {
  info : int array;
  (* frames written since the last [checkpoint] or [restore], so
     [restore] copies back O(touched) ints instead of the column, and
     scans cached at the checkpoint know which frames moved *)
  touched : Touched.t;
}

let validated_bit = 1 lsl 3
let pinned_bit = 1 lsl 4
let tc_shift = 5
let rc_shift = 34
let count_max = (1 lsl 29) - 1
let tc_mask = count_max lsl tc_shift
let tc_one = 1 lsl tc_shift
let rc_one = 1 lsl rc_shift
let create ~frames = { info = Array.make frames 0; touched = Touched.create frames }

let ptype_code = function
  | PGT_none -> 0
  | PGT_writable -> 1
  | PGT_l1 -> 2
  | PGT_l2 -> 3
  | PGT_l3 -> 4
  | PGT_l4 -> 5
  | PGT_seg -> 6

let ptype_of_code = [| PGT_none; PGT_writable; PGT_l1; PGT_l2; PGT_l3; PGT_l4; PGT_seg |]

(* by code, so a lookup allocates no option *)
let table_levels = [| None; None; Some 1; Some 2; Some 3; Some 4; None |]
let table_level p = table_levels.(ptype_code p)

let ptype_of_level l =
  if l < 1 || l > 4 then invalid_arg "Page_info.ptype_of_level" else ptype_of_code.(l + 1)

let ptype t mfn = Array.unsafe_get ptype_of_code (t.info.(mfn) land 7)
let type_count t mfn = (t.info.(mfn) lsr tc_shift) land count_max
let ref_count t mfn = t.info.(mfn) lsr rc_shift
let validated t mfn = t.info.(mfn) land validated_bit <> 0
let pinned t mfn = t.info.(mfn) land pinned_bit <> 0

let live_table t mfn =
  let x = t.info.(mfn) in
  x land tc_mask <> 0 && Option.is_some table_levels.(x land 7)

let touched t mfn = Touched.mem t.touched mfn
let any_touched t = t.touched.Touched.count > 0

(* The one store: touching first also rejects an mfn outside the table
   before anything changes. *)
let set t mfn x =
  Touched.add t.touched mfn;
  Array.unsafe_set t.info mfn x

let allocated t mfn = set t mfn rc_one
let freed t mfn = set t mfn (t.info.(mfn) land (7 lor tc_mask))

let set_type t mfn ptype ~count =
  if count < 0 || count > count_max then invalid_arg "Page_info.set_type: bad count";
  set t mfn (t.info.(mfn) land lnot (7 lor tc_mask) lor ptype_code ptype lor (count lsl tc_shift))

let set_flag bit t mfn on =
  let x = t.info.(mfn) in
  set t mfn (if on then x lor bit else x land lnot bit)

let set_validated = set_flag validated_bit
let set_pinned = set_flag pinned_bit

let get_page t mfn =
  if ref_count t mfn = count_max then invalid_arg "Page_info.get_page: refcount overflow";
  set t mfn (t.info.(mfn) + rc_one)

let put_page t mfn =
  if ref_count t mfn = 0 then invalid_arg "Page_info.put_page: refcount underflow";
  set t mfn (t.info.(mfn) - rc_one)

let get_page_type t mfn ptype =
  let x = t.info.(mfn) and n = type_count t mfn in
  if n > 0 && x land 7 = ptype_code ptype then (
    if n = count_max then invalid_arg "Page_info.get_page_type: type count overflow";
    set t mfn (x + tc_one);
    Ok ())
  else if n = 0 then (
    (* a fresh type starts unvalidated; a pin survives *)
    set t mfn (x land lnot (7 lor validated_bit) lor ptype_code ptype lor tc_one);
    Ok ())
  else Error Errno.EBUSY

let put_page_type t mfn =
  let n = type_count t mfn in
  if n = 0 then invalid_arg "Page_info.put_page_type: type count underflow";
  (* the last use drops validation and the pin; the type stays *)
  let x = t.info.(mfn) - tc_one in
  set t mfn (if n = 1 then x land lnot (validated_bit lor pinned_bit) else x)

let counts_consistent t =
  Array.for_all (fun x -> x land pinned_bit = 0 || x land tc_mask <> 0) t.info

(* --- checkpointing ---------------------------------------------------- *)

type checkpoint = int array

let checkpoint t =
  (* also resets the touched set: from here on it records divergence
     from exactly this checkpoint, which is what [restore] copies back *)
  Touched.clear t.touched;
  Array.copy t.info

let restore t ck =
  if Array.length ck <> Array.length t.info then invalid_arg "Page_info.restore: size mismatch";
  (* only frames written since [checkpoint] can differ *)
  for k = 0 to t.touched.Touched.count - 1 do
    let mfn = Array.unsafe_get t.touched.Touched.stack k in
    Array.unsafe_set t.info mfn (Array.unsafe_get ck mfn)
  done;
  Touched.clear t.touched

(* A full instance built from a checkpoint — the forked-testbed path,
   where [restore] does not apply (a fresh [create] has an empty touched
   set, so replaying it would copy nothing). *)
let of_checkpoint ck = { info = Array.copy ck; touched = Touched.create (Array.length ck) }
