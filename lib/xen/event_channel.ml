type port_binding =
  | Unbound of { allowed_remote : int }
  | Interdomain of { remote_dom : int; remote_port : int }
  | Virq of int

type port = {
  mutable binding : port_binding option;
  mutable pending : bool;
  mutable masked : bool;
}

type t = port array

let create ~max_ports =
  if max_ports <= 0 then invalid_arg "Event_channel.create";
  Array.init max_ports (fun _ -> { binding = None; pending = false; masked = false })

let max_ports t = Array.length t
let port t i = if i >= 0 && i < Array.length t then Some t.(i) else None

let find_free t =
  let n = Array.length t in
  let rec go i = if i >= n then None else if t.(i).binding = None then Some i else go (i + 1) in
  go 0

let alloc_unbound t ~allowed_remote =
  match find_free t with
  | None -> Error Errno.ENOSPC
  | Some i ->
      t.(i).binding <- Some (Unbound { allowed_remote });
      Ok i

let bind_interdomain ~local ~local_dom ~remote ~remote_dom ~remote_port =
  match port remote remote_port with
  | None -> Error Errno.EINVAL
  | Some rp -> (
      match rp.binding with
      | Some (Unbound { allowed_remote }) when allowed_remote = local_dom -> (
          match find_free local with
          | None -> Error Errno.ENOSPC
          | Some lp ->
              local.(lp).binding <- Some (Interdomain { remote_dom; remote_port });
              rp.binding <- Some (Interdomain { remote_dom = local_dom; remote_port = lp });
              Ok lp)
      | Some (Unbound _) -> Error Errno.EPERM
      | Some (Interdomain _ | Virq _) -> Error Errno.EBUSY
      | None -> Error Errno.ENOENT)

let bind_virq t ~virq =
  match find_free t with
  | None -> Error Errno.ENOSPC
  | Some i ->
      t.(i).binding <- Some (Virq virq);
      Ok i

let send t i =
  match port t i with
  | None -> Error Errno.EINVAL
  | Some p -> (
      match p.binding with
      | Some (Interdomain _ | Virq _) ->
          p.pending <- true;
          Ok ()
      | Some (Unbound _) | None -> Error Errno.ENOENT)

let consume t i =
  match port t i with
  | None -> false
  | Some p ->
      let was = p.pending in
      p.pending <- false;
      was

let close t i =
  match port t i with
  | None -> Error Errno.EINVAL
  | Some p -> (
      match p.binding with
      | None -> Error Errno.ENOENT
      | Some _ ->
          p.binding <- None;
          p.pending <- false;
          p.masked <- false;
          Ok ())

let collect t f =
  let acc = ref [] in
  Array.iteri (fun i p -> if f p then acc := i :: !acc) t;
  List.rev !acc

let pending_ports t = collect t (fun p -> p.pending)

let pending_count t =
  let n = ref 0 in
  for i = 0 to Array.length t - 1 do
    if t.(i).pending then incr n
  done;
  !n

let any_pending t = Array.exists (fun p -> p.pending) t
let bound_ports t = collect t (fun p -> p.binding <> None)

let force_pending_all t =
  let n = ref 0 in
  Array.iter
    (fun p ->
      if not p.pending then (
        p.pending <- true;
        incr n))
    t;
  !n

let deep_copy t =
  Array.map (fun p -> { binding = p.binding; pending = p.pending; masked = p.masked }) t

let restore_into t ~from =
  if Array.length t <> Array.length from then
    invalid_arg "Event_channel.restore_into: port counts differ";
  for i = 0 to Array.length t - 1 do
    let p = t.(i) and s = from.(i) in
    (* skip the write barrier when the binding is already the same *)
    if p.binding != s.binding then p.binding <- s.binding;
    p.pending <- s.pending;
    p.masked <- s.masked
  done
