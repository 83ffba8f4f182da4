(* A growable int buffer, reused by every scan of one memo. *)
type buf = { mutable a : int array; mutable n : int }

let push b m =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n m;
  b.n <- b.n + 1

type deps = { reads : buf; types : buf }

let note_read d m = push d.reads m
let note_type d m = push d.types m

type 'a node = {
  root : int;  (* the frame the scan starts from *)
  tag : int;  (* the rest of the key, the caller's *)
  reads : Addr.mfn array;  (* frames whose bytes the scan read *)
  types : Addr.mfn array;  (* frames whose type state the scan consulted *)
  value : 'a;
  children : 'a node array;  (* the stored scans this one's value includes *)
  tree_reads : Addr.mfn array;  (* [reads] of this node and every descendant *)
  tree_types : Addr.mfn array;
}

type 'a t = {
  nodes : (int, 'a node list) Hashtbl.t;  (* by root *)
  mutable epoch : int;  (* the baseline epoch anchored at; -1 before the first use *)
  deps : deps;
  (* The running scans, innermost last, four ints each: where its reads,
     types and children start in the buffers, and whether everything
     the enclosing scan had used so far was stored (1) or not (0). *)
  scans : buf;
  mutable kids : 'a node array;  (* children of the running scans *)
  mutable nkids : int;
  mutable whole : bool;  (* every scan the innermost running one used is stored *)
}

let create () =
  {
    nodes = Hashtbl.create 64;
    epoch = -1;
    deps = { reads = { a = Array.make 64 0; n = 0 }; types = { a = Array.make 256 0; n = 0 } };
    scans = { a = Array.make 32 0; n = 0 };
    kids = [||];
    nkids = 0;
    whole = true;
  }

let usable t mem =
  Phys_mem.provenance mem = None
  &&
  let e = Phys_mem.baseline_epoch mem in
  if t.epoch <> e then begin
    Hashtbl.reset t.nodes;
    t.epoch <- e
  end;
  true

let size t = Hashtbl.fold (fun _ l n -> n + List.length l) t.nodes 0

(* The one validity rule: no frame read is dirty and no frame consulted
   is type-touched since the baseline. An empty dirty set (every
   snapshot straight after a reset) and an absent [touched] answer
   without looking at the sets. *)
let rec none_dirty mem a i n =
  i >= n || ((not (Phys_mem.is_dirty mem (Array.unsafe_get a i))) && none_dirty mem a (i + 1) n)

let rec none_touched f a i n =
  i >= n || ((not (f (Array.unsafe_get a i))) && none_touched f a (i + 1) n)

let hold mem touched ~reads ~r0 ~r1 ~types ~t0 ~t1 =
  (Phys_mem.dirty_count mem = 0 || none_dirty mem reads r0 r1)
  && match touched with None -> true | Some f -> none_touched f types t0 t1

let holds mem ?touched n =
  hold mem touched ~reads:n.reads ~r0:0 ~r1:(Array.length n.reads) ~types:n.types ~t0:0
    ~t1:(Array.length n.types)

let tree_holds mem ?touched n =
  hold mem touched ~reads:n.tree_reads ~r0:0 ~r1:(Array.length n.tree_reads) ~types:n.tree_types
    ~t0:0 ~t1:(Array.length n.tree_types)

let rec find_tag tag = function
  | [] -> raise Not_found
  | n :: rest -> if n.tag = tag then n else find_tag tag rest

let find t ~root ~tag = find_tag tag (Hashtbl.find t.nodes root)
let deps t = t.deps
let value n = n.value
let children n = n.children
let root n = n.root
let tag n = n.tag

let keep t n =
  if t.scans.n > 0 then begin
    if t.nkids = Array.length t.kids then begin
      let a = Array.make ((2 * t.nkids) + 8) n in
      Array.blit t.kids 0 a 0 t.nkids;
      t.kids <- a
    end;
    Array.unsafe_set t.kids t.nkids n;
    t.nkids <- t.nkids + 1
  end

let enter t =
  let d = t.deps in
  push t.scans d.reads.n;
  push t.scans d.types.n;
  push t.scans t.nkids;
  push t.scans (Bool.to_int t.whole);
  t.whole <- true

(* Sorted and deduplicated: a frame is read or consulted many times in
   one scan (the Xen tables every domain maps, a frame mapped twice). *)
let sort_unique a =
  Array.sort Int.compare a;
  let n = ref 0 in
  Array.iter
    (fun m ->
      if !n = 0 || m <> a.(!n - 1) then begin
        a.(!n) <- m;
        incr n
      end)
    a;
  Array.sub a 0 !n

(* A node's own set, and the union with its children's tree sets. *)
let own b i0 = sort_unique (Array.sub b.a i0 (b.n - i0))

let tree own children field =
  if Array.length children = 0 then own
  else sort_unique (Array.concat (own :: List.map field (Array.to_list children)))

let add t n =
  let others =
    match Hashtbl.find_opt t.nodes n.root with
    | Some l -> List.filter (fun m -> m.tag <> n.tag) l
    | None -> []
  in
  Hashtbl.replace t.nodes n.root (n :: others)

let leave t mem ?touched ~store ~root ~tag value =
  let f = t.scans and d = t.deps in
  let top = f.n - 4 in
  let r0 = f.a.(top) and t0 = f.a.(top + 1) and k0 = f.a.(top + 2) in
  let outer = f.a.(top + 3) = 1 in
  f.n <- top;
  let node =
    if
      store && t.whole
      && hold mem touched ~reads:d.reads.a ~r0 ~r1:d.reads.n ~types:d.types.a ~t0 ~t1:d.types.n
    then begin
      let reads = own d.reads r0 and types = own d.types t0 in
      let children = Array.sub t.kids k0 (t.nkids - k0) in
      Some
        {
          root;
          tag;
          reads;
          types;
          value;
          children;
          tree_reads = tree reads children (fun c -> c.tree_reads);
          tree_types = tree types children (fun c -> c.tree_types);
        }
    end
    else None
  in
  d.reads.n <- r0;
  d.types.n <- t0;
  t.nkids <- k0;
  match node with
  | Some n ->
      t.whole <- outer;
      add t n;
      keep t n
  | None -> t.whole <- false

let get t mem ?touched ~key ~root scan =
  match find t ~root ~tag:key with
  | n when holds mem ?touched n -> n.value
  | _ | (exception Not_found) ->
      enter t;
      let value = scan t.deps in
      leave t mem ?touched ~store:true ~root ~tag:key value;
      value
