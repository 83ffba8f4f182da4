type t = {
  tbl : (string, string) Hashtbl.t;
  mutable generation : int;  (* moves on every change to [tbl] *)
  mutable tracer : Trace.t option;
  mutable synced : (string * string) list option;
      (* the dump last restored, while no mutation followed: compared
         by physical identity, so it names the checkpoint it came from *)
}

let create () = { tbl = Hashtbl.create 31; generation = 0; tracer = None; synced = None }
let generation t = t.generation

(* Every change to the table goes through here *)
let changed t =
  t.synced <- None;
  t.generation <- t.generation + 1

let set_tracer t tr = t.tracer <- Some tr
let domain_path id key = Printf.sprintf "/local/domain/%d/%s" id key

let domain_root = "/local/domain/"

(* [path] starts with ["/local/domain/<caller>/"], checked in place with
   no string built. Digits are compared from the last one back, on the
   non-positive [n] (= -|caller|), so [min_int] needs no special case. *)
let rec digit_count n acc = if n > -10 then acc else digit_count (n / 10) (acc + 1)

let rec digits_match path ~first n i =
  path.[i] = Char.unsafe_chr (48 - (n mod 10))
  && (i = first || digits_match path ~first (n / 10) (i - 1))

(* [String.starts_with] builds a closure per call; this does not *)
let rec root_from path i =
  i = String.length domain_root || (path.[i] = domain_root.[i] && root_from path (i + 1))

let own_subtree caller path =
  let first = String.length domain_root + if caller < 0 then 1 else 0 in
  let n = if caller < 0 then caller else -caller in
  let slash = first + digit_count n 1 in
  String.length path > slash
  && path.[slash] = '/'
  && root_from path 0
  && (caller >= 0 || path.[first - 1] = '-')
  && digits_match path ~first n (slash - 1)

let may_access ~caller path = caller = 0 || own_subtree caller path

(* Store writes are management-plane inputs to the system, so they are
   boundary events: recorded (and replayed) when they originate outside
   any already-recorded crossing. *)
let trace_write t ~caller ~injected path value =
  match t.tracer with
  | None -> ()
  | Some tr ->
      if Trace.recording tr && Trace.top_level tr then
        Trace.emit tr (Trace.Xenstore_write { caller; injected; path; value })

(* A committed write costs one store transaction of virtual time,
   traced or not; refused writes cost nothing. *)
let charge t =
  match t.tracer with None -> () | Some tr -> Trace.charge tr Vclock.Xenstore_write

let write t ~caller path value =
  if may_access ~caller path then begin
    trace_write t ~caller ~injected:false path value;
    charge t;
    changed t;
    Hashtbl.replace t.tbl path value;
    Ok ()
  end
  else Error Errno.EACCES

let read t ~caller path =
  if not (may_access ~caller path) then Error Errno.EACCES
  else match Hashtbl.find_opt t.tbl path with Some v -> Ok v | None -> Error Errno.ENOENT

let read_or t ~caller path ~default =
  if not (may_access ~caller path) then default
  else match Hashtbl.find t.tbl path with v -> v | exception Not_found -> default

let rm t ~caller path =
  if not (may_access ~caller path) then Error Errno.EACCES
  else if Hashtbl.mem t.tbl path then begin
    changed t;
    Hashtbl.remove t.tbl path;
    Ok ()
  end
  else Error Errno.ENOENT

let list_prefix t ~caller prefix =
  if not (may_access ~caller prefix) then Error Errno.EACCES
  else
    Ok
      (List.sort String.compare
         (Hashtbl.fold
            (fun path _ acc ->
              if
                String.length path >= String.length prefix
                && String.sub path 0 (String.length prefix) = prefix
              then path :: acc
              else acc)
            t.tbl []))

let inject_write t path value =
  trace_write t ~caller:(-1) ~injected:true path value;
  charge t;
  changed t;
  Hashtbl.replace t.tbl path value

let dump t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [])

let restore_dump t entries =
  match t.synced with
  | Some d when d == entries -> ()
  | Some _ | None ->
      changed t;
      Hashtbl.reset t.tbl;
      List.iter (fun (k, v) -> Hashtbl.replace t.tbl k v) entries;
      t.synced <- Some entries
