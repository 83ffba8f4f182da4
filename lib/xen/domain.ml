type t = {
  id : int;
  name : string;
  privileged : bool;
  p2m : Addr.mfn option array;
  mutable l4_mfn : Addr.mfn;
  mutable pt_pages : Addr.mfn list;
  start_info_pfn : Addr.pfn;
  vdso_pfn : Addr.pfn;
  grant : Grant_table.t;
  events : Event_channel.t;
  mutable dom_crashed : bool;
}

let make ~id ~name ~privileged ~max_pfn ~start_info_pfn ~vdso_pfn =
  {
    id;
    name;
    privileged;
    p2m = Array.make max_pfn None;
    l4_mfn = -1;
    pt_pages = [];
    start_info_pfn;
    vdso_pfn;
    grant = Grant_table.create ~grefs:64;
    events = Event_channel.create ~max_ports:64;
    dom_crashed = false;
  }

(* Structural copy for hypervisor checkpointing. *)
let deep_copy t =
  {
    t with
    p2m = Array.copy t.p2m;
    grant = Grant_table.deep_copy t.grant;
    events = Event_channel.deep_copy t.events;
  }

let max_pfn t = Array.length t.p2m

(* In-place checkpoint restore: the live record keeps its identity, so
   nothing that holds it has to be re-pointed. A P2M slot is only
   stored when it differs: after the first restore the live slots hold
   the checkpoint's own [Some] boxes, so an untouched slot costs a
   pointer compare instead of a write barrier. *)
let restore_into t ~from =
  if t.id <> from.id || max_pfn t <> Array.length from.p2m then
    invalid_arg "Domain.restore_into: not the same domain";
  for i = 0 to max_pfn t - 1 do
    let m = from.p2m.(i) in
    if t.p2m.(i) != m then t.p2m.(i) <- m
  done;
  t.l4_mfn <- from.l4_mfn;
  t.pt_pages <- from.pt_pages;
  Grant_table.restore_into t.grant ~from:from.grant;
  Event_channel.restore_into t.events ~from:from.events;
  t.dom_crashed <- from.dom_crashed

let mfn_of_pfn t pfn = if pfn >= 0 && pfn < max_pfn t then t.p2m.(pfn) else None

let pfn_of_mfn t mfn =
  let n = max_pfn t in
  let rec go i =
    if i >= n then None else match t.p2m.(i) with Some m when m = mfn -> Some i | _ -> go (i + 1)
  in
  go 0

let set_p2m t pfn mfn =
  if pfn < 0 || pfn >= max_pfn t then invalid_arg "Domain.set_p2m: pfn out of range";
  t.p2m.(pfn) <- mfn

let populated_pfns t =
  let acc = ref [] in
  for i = max_pfn t - 1 downto 0 do
    if t.p2m.(i) <> None then acc := i :: !acc
  done;
  !acc

let populated_count t =
  let n = ref 0 in
  for i = 0 to max_pfn t - 1 do
    match t.p2m.(i) with Some _ -> incr n | None -> ()
  done;
  !n

let owned t = Phys_mem.Dom t.id

let kernel_vaddr_of_pfn pfn =
  Int64.add Layout.guest_kernel_base (Int64.of_int (pfn * Addr.page_size))

let pp ppf t =
  Format.fprintf ppf "dom%d(%s%s, %d pages)" t.id t.name
    (if t.privileged then ", privileged" else "")
    (populated_count t)
