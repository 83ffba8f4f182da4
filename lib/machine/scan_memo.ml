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

type 'a entry = {
  root : int;
  reads : Addr.mfn array;  (* frames whose bytes the scan read *)
  types : Addr.mfn array;  (* frames whose type state the scan consulted *)
  value : 'a;
}

type 'a t = {
  entries : (int, 'a entry) Hashtbl.t;
  mutable epoch : int;  (* the baseline epoch anchored at; -1 before the first use *)
  deps : deps;
}

let create () =
  {
    entries = Hashtbl.create 8;
    epoch = -1;
    deps = { reads = { a = Array.make 64 0; n = 0 }; types = { a = Array.make 256 0; n = 0 } };
  }

let usable t mem =
  Phys_mem.provenance mem = None
  &&
  let e = Phys_mem.baseline_epoch mem in
  if t.epoch <> e then begin
    Hashtbl.reset t.entries;
    t.epoch <- e
  end;
  true

(* The one validity rule: no frame read is dirty and no frame consulted
   is type-touched since the baseline. An empty dirty list (every
   snapshot straight after a reset) and an absent [touched] answer
   without looking at the sets. *)
let rec none_dirty mem a n i =
  i >= n || ((not (Phys_mem.is_dirty mem a.(i))) && none_dirty mem a n (i + 1))

let rec none_touched f a n i = i >= n || ((not (f a.(i))) && none_touched f a n (i + 1))

let holds mem touched ~reads ~nreads ~types ~ntypes =
  (match Phys_mem.dirty_list mem with [] -> true | _ :: _ -> none_dirty mem reads nreads 0)
  && match touched with None -> true | Some f -> none_touched f types ntypes 0

(* Sorted and deduplicated: a frame is read or consulted many times in
   one scan (the Xen tables every domain maps, a frame mapped twice). *)
let compact b =
  let a = Array.sub b.a 0 b.n in
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

let get t mem ?touched ~key ~root scan =
  match Hashtbl.find_opt t.entries key with
  | Some e
    when e.root = root
         && holds mem touched ~reads:e.reads ~nreads:(Array.length e.reads) ~types:e.types
              ~ntypes:(Array.length e.types) ->
      e.value
  | Some _ | None ->
      let d = t.deps in
      d.reads.n <- 0;
      d.types.n <- 0;
      let value = scan d in
      if holds mem touched ~reads:d.reads.a ~nreads:d.reads.n ~types:d.types.a ~ntypes:d.types.n
      then
        Hashtbl.replace t.entries key
          { root; reads = compact d.reads; types = compact d.types; value };
      value
