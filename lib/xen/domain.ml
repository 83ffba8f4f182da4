(* The slots, the pfns [set_p2m] changed since the checkpoint, and how
   many slots hold a page: [set_p2m], the one writer, keeps the count. *)
type p2m = { slots : Addr.mfn option array; touched : Touched.t; mutable populated : int }

type t = {
  id : int;
  name : string;
  privileged : bool;
  owner : Phys_mem.owner;
  p2m : p2m;
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
    owner = Phys_mem.Dom id;
    p2m = { slots = Array.make max_pfn None; touched = Touched.create max_pfn; populated = 0 };
    l4_mfn = -1;
    pt_pages = [];
    start_info_pfn;
    vdso_pfn;
    grant = Grant_table.create ~grefs:64;
    events = Event_channel.create ~max_ports:64;
    dom_crashed = false;
  }

(* A structural copy with the given tables, nothing touched in it. *)
let copy_with t ~grant ~events =
  let slots = Array.copy t.p2m.slots in
  {
    t with
    p2m = { slots; touched = Touched.create (Array.length slots); populated = t.p2m.populated };
    grant;
    events;
  }

let deep_copy t =
  copy_with t ~grant:(Grant_table.deep_copy t.grant) ~events:(Event_channel.deep_copy t.events)

let checkpoint t =
  Touched.clear t.p2m.touched;
  copy_with t ~grant:(Grant_table.checkpoint t.grant)
    ~events:(Event_channel.checkpoint t.events)

let max_pfn t = Array.length t.p2m.slots

(* In-place checkpoint restore: the live record keeps its identity, so
   nothing that holds it has to be re-pointed. Only the P2M slots, grant
   entries and ports changed since the checkpoint are copied back, so a
   domain the trial left alone costs four checks. *)
let restore_into t ~from =
  if t.id <> from.id || max_pfn t <> max_pfn from then
    invalid_arg "Domain.restore_into: not the same domain";
  let touched = t.p2m.touched in
  for k = 0 to touched.Touched.count - 1 do
    let i = Array.unsafe_get touched.Touched.stack k in
    t.p2m.slots.(i) <- from.p2m.slots.(i)
  done;
  Touched.clear touched;
  t.p2m.populated <- from.p2m.populated;
  t.l4_mfn <- from.l4_mfn;
  if t.pt_pages != from.pt_pages then t.pt_pages <- from.pt_pages;
  Grant_table.restore_into t.grant ~from:from.grant;
  Event_channel.restore_into t.events ~from:from.events;
  t.dom_crashed <- from.dom_crashed

let mfn_of_pfn t pfn =
  if pfn >= 0 && pfn < max_pfn t then Array.unsafe_get t.p2m.slots pfn else None

let pfn_of_mfn t mfn =
  let n = max_pfn t in
  let rec go i =
    if i >= n then None else match t.p2m.slots.(i) with Some m when m = mfn -> Some i | _ -> go (i + 1)
  in
  go 0

let filled = function Some _ -> 1 | None -> 0

let set_p2m t pfn mfn =
  if pfn < 0 || pfn >= max_pfn t then invalid_arg "Domain.set_p2m: pfn out of range";
  Touched.add t.p2m.touched pfn;
  let slots = t.p2m.slots in
  t.p2m.populated <- t.p2m.populated + filled mfn - filled slots.(pfn);
  slots.(pfn) <- mfn

let populated_pfns t =
  let acc = ref [] in
  for i = max_pfn t - 1 downto 0 do
    if t.p2m.slots.(i) <> None then acc := i :: !acc
  done;
  !acc

let populated_count t = t.p2m.populated

let owned t = t.owner

let kernel_vaddr_of_pfn pfn =
  Int64.add Layout.guest_kernel_base (Int64.of_int (pfn * Addr.page_size))

let pp ppf t =
  Format.fprintf ppf "dom%d(%s%s, %d pages)" t.id t.name
    (if t.privileged then ", privileged" else "")
    (populated_count t)
