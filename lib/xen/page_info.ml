type ptype = PGT_none | PGT_writable | PGT_l1 | PGT_l2 | PGT_l3 | PGT_l4 | PGT_seg

type info = {
  mutable owner : Phys_mem.owner;
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
  touched : Bytes.t;
  touched_stack : int array;  (* the touched frames, [ntouched] of them; one slot per frame *)
  mutable ntouched : int;
}

let fresh () =
  { owner = Phys_mem.Free; ptype = PGT_none; type_count = 0; ref_count = 0;
    validated = false; pinned = false }

let copy i =
  { owner = i.owner; ptype = i.ptype; type_count = i.type_count; ref_count = i.ref_count;
    validated = i.validated; pinned = i.pinned }

let create ~frames =
  {
    infos = Array.init frames (fun _ -> fresh ());
    touched = Bytes.make frames '\000';
    touched_stack = Array.make frames 0;
    ntouched = 0;
  }

let get t mfn =
  if mfn < 0 || mfn >= Array.length t.infos then invalid_arg "Page_info.get: bad mfn";
  t.infos.(mfn)

let touch t mfn =
  if Bytes.unsafe_get t.touched mfn = '\000' then begin
    Bytes.unsafe_set t.touched mfn '\001';
    Array.unsafe_set t.touched_stack t.ntouched mfn;
    t.ntouched <- t.ntouched + 1
  end

let touched t mfn =
  mfn >= 0 && mfn < Bytes.length t.touched && Bytes.unsafe_get t.touched mfn = '\001'

let any_touched t = t.ntouched > 0

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
  for i = 0 to t.ntouched - 1 do
    Bytes.set t.touched t.touched_stack.(i) '\000'
  done;
  t.ntouched <- 0;
  Array.map copy t.infos

(* Restore by field assignment: existing [info] records stay aliased
   from wherever they are held. *)
let restore t ck =
  if Array.length ck <> Array.length t.infos then
    invalid_arg "Page_info.restore: size mismatch";
  (* only frames mutated since [checkpoint] can differ *)
  for k = t.ntouched - 1 downto 0 do
    let mfn = t.touched_stack.(k) in
    let s = ck.(mfn) in
    let i = t.infos.(mfn) in
    i.owner <- s.owner;
    i.ptype <- s.ptype;
    i.type_count <- s.type_count;
    i.ref_count <- s.ref_count;
    i.validated <- s.validated;
    i.pinned <- s.pinned;
    Bytes.set t.touched mfn '\000'
  done;
  t.ntouched <- 0

(* A full instance built from a checkpoint — the forked-testbed path,
   where [restore] does not apply (a fresh [create] has an empty touched
   set, so replaying it would copy nothing). *)
let of_checkpoint ck =
  let frames = Array.length ck in
  {
    infos = Array.map copy ck;
    touched = Bytes.make frames '\000';
    touched_stack = Array.make frames 0;
    ntouched = 0;
  }

let counts_consistent t =
  Array.for_all
    (fun i -> i.type_count >= 0 && i.ref_count >= 0 && ((not i.pinned) || i.type_count > 0))
    t.infos
