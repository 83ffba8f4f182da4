type ptype = PGT_none | PGT_writable | PGT_l1 | PGT_l2 | PGT_l3 | PGT_l4 | PGT_seg

type info = {
  mutable ptype : ptype;
  mutable type_count : int;
  mutable ref_count : int;
  mutable validated : bool;
  mutable pinned : bool;
}

type t = {
  infos : info array;
  (* frames mutated since the last [checkpoint] or [restore], so
     [restore] replays O(touched) entries instead of the whole array,
     and scans cached at the checkpoint know which infos moved *)
  touched : Touched.t;
}

let fresh () =
  { ptype = PGT_none; type_count = 0; ref_count = 0; validated = false; pinned = false }

let copy i =
  { ptype = i.ptype; type_count = i.type_count; ref_count = i.ref_count;
    validated = i.validated; pinned = i.pinned }

let create ~frames =
  { infos = Array.init frames (fun _ -> fresh ()); touched = Touched.create frames }

let get t mfn =
  if mfn < 0 || mfn >= Array.length t.infos then invalid_arg "Page_info.get: bad mfn";
  t.infos.(mfn)

let touch t mfn = Touched.add t.touched mfn
let touched t mfn = Touched.mem t.touched mfn
let any_touched t = t.touched.Touched.count > 0

(* A frame the allocator just handed out: one general reference, no
   type. *)
let allocated t mfn =
  let i = get t mfn in
  Touched.add t.touched mfn;
  i.ptype <- PGT_none;
  i.type_count <- 0;
  i.ref_count <- 1;
  i.validated <- false;
  i.pinned <- false

let table_level = function
  | PGT_l1 -> Some 1
  | PGT_l2 -> Some 2
  | PGT_l3 -> Some 3
  | PGT_l4 -> Some 4
  | PGT_none | PGT_writable | PGT_seg -> None

let ptype_of_level = function
  | 1 -> PGT_l1
  | 2 -> PGT_l2
  | 3 -> PGT_l3
  | 4 -> PGT_l4
  | _ -> invalid_arg "Page_info.ptype_of_level"

let ptype_code = function
  | PGT_none -> 0
  | PGT_writable -> 1
  | PGT_l1 -> 2
  | PGT_l2 -> 3
  | PGT_l3 -> 4
  | PGT_l4 -> 5
  | PGT_seg -> 6

let get_page t mfn =
  let i = get t mfn in
  touch t mfn;
  i.ref_count <- i.ref_count + 1

let put_page t mfn =
  let i = get t mfn in
  if i.ref_count <= 0 then invalid_arg "Page_info.put_page: refcount underflow";
  touch t mfn;
  i.ref_count <- i.ref_count - 1

let get_page_type t mfn ptype =
  let i = get t mfn in
  if i.ptype = ptype && i.type_count > 0 then (
    touch t mfn;
    i.type_count <- i.type_count + 1;
    Ok ())
  else if i.type_count = 0 then (
    touch t mfn;
    i.ptype <- ptype;
    i.type_count <- 1;
    i.validated <- false;
    Ok ())
  else Error Errno.EBUSY

let put_page_type t mfn =
  let i = get t mfn in
  if i.type_count <= 0 then invalid_arg "Page_info.put_page_type: type count underflow";
  touch t mfn;
  i.type_count <- i.type_count - 1;
  if i.type_count = 0 then (
    i.validated <- false;
    i.pinned <- false)

type checkpoint = info array

let checkpoint t =
  (* also resets the touched set: from here on it records divergence
     from exactly this checkpoint, which is what [restore] replays *)
  Touched.clear t.touched;
  Array.map copy t.infos

(* Restore by field assignment: existing [info] records stay aliased
   from wherever they are held. *)
let restore t ck =
  if Array.length ck <> Array.length t.infos then
    invalid_arg "Page_info.restore: size mismatch";
  (* only frames mutated since [checkpoint] can differ *)
  let touched = t.touched in
  for k = 0 to touched.Touched.count - 1 do
    let mfn = Array.unsafe_get touched.Touched.stack k in
    let s = ck.(mfn) in
    let i = t.infos.(mfn) in
    i.ptype <- s.ptype;
    i.type_count <- s.type_count;
    i.ref_count <- s.ref_count;
    i.validated <- s.validated;
    i.pinned <- s.pinned
  done;
  Touched.clear touched

(* A full instance built from a checkpoint — the forked-testbed path,
   where [restore] does not apply (a fresh [create] has an empty touched
   set, so replaying it would copy nothing). *)
let of_checkpoint ck =
  { infos = Array.map copy ck; touched = Touched.create (Array.length ck) }

let counts_consistent t =
  Array.for_all
    (fun i -> i.type_count >= 0 && i.ref_count >= 0 && ((not i.pinned) || i.type_count > 0))
    t.infos
