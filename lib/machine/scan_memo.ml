type 'a entry = {
  root : int;
  deps : Addr.mfn array;  (* every frame the scan read *)
  value : 'a;
}

type 'a t = {
  entries : (int, 'a entry) Hashtbl.t;
  mutable anchor : (int * int) option;  (* baseline epoch, extra generation *)
}

let create () = { entries = Hashtbl.create 8; anchor = None }

let anchored ?(gen = 0) mem =
  { entries = Hashtbl.create 8; anchor = Some (Phys_mem.baseline_epoch mem, gen) }

let usable t mem ?(gen = 0) () =
  Phys_mem.provenance mem = None
  &&
  let e = Phys_mem.baseline_epoch mem in
  match t.anchor with
  | Some (ae, ag) when ae = e && ag = gen -> true
  | Some (ae, ag) when ae = e && gen > ag -> false
  | _ ->
      Hashtbl.reset t.entries;
      t.anchor <- Some (e, gen);
      true

let clean mem deps = Array.for_all (fun m -> not (Phys_mem.is_dirty mem m)) deps

let get t mem ~key ~root scan =
  match Hashtbl.find_opt t.entries key with
  | Some e when e.root = root && clean mem e.deps -> e.value
  | _ ->
      let read = ref [] in
      let value = scan (fun m -> read := m :: !read) in
      let deps = Array.of_list !read in
      if clean mem deps then Hashtbl.replace t.entries key { root; deps; value };
      value
