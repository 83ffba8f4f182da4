type port_binding =
  | Unbound of { allowed_remote : int }
  | Interdomain of { remote_dom : int; remote_port : int }
  | Virq of int

type port = {
  mutable binding : port_binding option;
  mutable pending : bool;
  mutable masked : bool;
}

(* [touched] holds the ports written since the checkpoint: every
   mutator below marks its port first, through [set_binding] or
   [set_pending]. [pending] counts the pending ports: [set_pending], the
   one writer of a pending bit, keeps it. *)
type t = { ports : port array; touched : Touched.t; mutable pending : int }

let create ~max_ports =
  if max_ports <= 0 then invalid_arg "Event_channel.create";
  {
    ports = Array.init max_ports (fun _ -> { binding = None; pending = false; masked = false });
    touched = Touched.create max_ports;
    pending = 0;
  }

let max_ports t = Array.length t.ports
let port t i = if i >= 0 && i < Array.length t.ports then Some t.ports.(i) else None

let set_binding t i b =
  Touched.add t.touched i;
  t.ports.(i).binding <- b

let set_pending t i v =
  let p = t.ports.(i) in
  if p.pending <> v then begin
    Touched.add t.touched i;
    p.pending <- v;
    t.pending <- (if v then t.pending + 1 else t.pending - 1)
  end

let find_free t =
  let n = Array.length t.ports in
  let rec go i =
    if i >= n then None else if t.ports.(i).binding = None then Some i else go (i + 1)
  in
  go 0

let alloc_unbound t ~allowed_remote =
  match find_free t with
  | None -> Error Errno.ENOSPC
  | Some i ->
      set_binding t i (Some (Unbound { allowed_remote }));
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
              set_binding local lp (Some (Interdomain { remote_dom; remote_port }));
              set_binding remote remote_port
                (Some (Interdomain { remote_dom = local_dom; remote_port = lp }));
              Ok lp)
      | Some (Unbound _) -> Error Errno.EPERM
      | Some (Interdomain _ | Virq _) -> Error Errno.EBUSY
      | None -> Error Errno.ENOENT)

let bind_virq t ~virq =
  match find_free t with
  | None -> Error Errno.ENOSPC
  | Some i ->
      set_binding t i (Some (Virq virq));
      Ok i

let send t i =
  match port t i with
  | None -> Error Errno.EINVAL
  | Some p -> (
      match p.binding with
      | Some (Interdomain _ | Virq _) ->
          set_pending t i true;
          Ok ()
      | Some (Unbound _) | None -> Error Errno.ENOENT)

let consume t i =
  match port t i with
  | None -> false
  | Some p ->
      let was = p.pending in
      set_pending t i false;
      was

let close t i =
  match port t i with
  | None -> Error Errno.EINVAL
  | Some p -> (
      match p.binding with
      | None -> Error Errno.ENOENT
      | Some _ ->
          set_binding t i None;
          set_pending t i false;
          p.masked <- false;
          Ok ())

let collect t f =
  let acc = ref [] in
  Array.iteri (fun i p -> if f p then acc := i :: !acc) t.ports;
  List.rev !acc

let pending_ports t = collect t (fun p -> p.pending)

let pending_count t = t.pending
let any_pending t = t.pending > 0

let rec collect_pending t ~limit i acc =
  if limit = 0 || i >= Array.length t.ports then List.rev acc
  else if t.ports.(i).pending then collect_pending t ~limit:(limit - 1) (i + 1) (i :: acc)
  else collect_pending t ~limit (i + 1) acc

let first_pending t ~limit = collect_pending t ~limit 0 []

let bound_ports t = collect t (fun p -> p.binding <> None)

let force_pending_all t =
  let n = ref 0 in
  for i = 0 to Array.length t.ports - 1 do
    if not t.ports.(i).pending then begin
      set_pending t i true;
      incr n
    end
  done;
  !n

let deep_copy t =
  let copy p = { binding = p.binding; pending = p.pending; masked = p.masked } in
  {
    ports = Array.map copy t.ports;
    touched = Touched.create (Array.length t.ports);
    pending = t.pending;
  }

let checkpoint t =
  Touched.clear t.touched;
  deep_copy t

let restore_into t ~from =
  if Array.length t.ports <> Array.length from.ports then
    invalid_arg "Event_channel.restore_into: port counts differ";
  let touched = t.touched in
  for k = 0 to touched.Touched.count - 1 do
    let i = Array.unsafe_get touched.Touched.stack k in
    let p = t.ports.(i) and s = from.ports.(i) in
    (* skip the write barrier when the binding is already the same *)
    if p.binding != s.binding then p.binding <- s.binding;
    p.pending <- s.pending;
    p.masked <- s.masked
  done;
  Touched.clear touched;
  t.pending <- from.pending
