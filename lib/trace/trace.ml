(* Event tracer: always-on scalar counters plus an optional binary ring
   of typed records (xentrace style). See trace.mli for the contract. *)

(* --- wire codec ------------------------------------------------------- *)

(* The one little-endian framing of the trace ring and of recorded
   hypercall payloads, as field codecs: each pairs a writer with the
   reader that inverts it, so a layout is spelt once and both
   directions come from it. *)
module Wire = struct
  type cursor = { src : string; mutable pos : int }

  exception Truncated
  exception Malformed of string

  type 'a t = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

  let need r n = if n < 0 || r.pos + n > String.length r.src then raise Truncated

  let advance r n v =
    r.pos <- r.pos + n;
    v

  let u8 =
    {
      put = (fun b v -> Buffer.add_uint8 b (v land 0xff));
      get = (fun r -> need r 1; advance r 1 (Char.code r.src.[r.pos]));
    }

  let u32 =
    {
      put = (fun b v -> Buffer.add_int32_le b (Int32.of_int v));
      get = (fun r -> need r 4; advance r 4 (Int32.to_int (String.get_int32_le r.src r.pos)));
    }

  let i64 =
    {
      put = Buffer.add_int64_le;
      get = (fun r -> need r 8; advance r 8 (String.get_int64_le r.src r.pos));
    }

  let str =
    {
      put = (fun b s -> u32.put b (String.length s); Buffer.add_string b s);
      get =
        (fun r ->
          let n = u32.get r in
          need r n;
          advance r n (String.sub r.src r.pos n));
    }

  let unit = { put = (fun _ () -> ()); get = (fun _ -> ()) }
  let conv of_wire to_wire f =
    { put = (fun b v -> f.put b (to_wire v)); get = (fun r -> of_wire (f.get r)) }
  let flag = conv (fun v -> v = 1) (fun v -> if v then 1 else 0) u8

  let ( & ) a b =
    {
      put = (fun buf (x, y) -> a.put buf x; b.put buf y);
      get = (fun r -> let x = a.get r in let y = b.get r in (x, y));
    }

  (* The stdlib does not specify [List.init]'s evaluation order, so the
     elements are read by explicit left-to-right recursion. *)
  let list count elt =
    {
      put = (fun b l -> count.put b (List.length l); List.iter (elt.put b) l);
      get =
        (fun r ->
          let n = count.get r in
          if n < 0 then raise Truncated;
          let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (elt.get r :: acc) in
          go n []);
    }

  let rec code_of v = function
    | (code, w) :: rest -> if w == v then code else code_of v rest
    | [] -> invalid_arg "Trace.Wire.enum: a value without a code"

  let enum what codes =
    {
      put = (fun b v -> u8.put b (code_of v codes));
      get =
        (fun r ->
          match List.assoc_opt (u8.get r) codes with
          | Some v -> v
          | None -> raise (Malformed ("bad " ^ what)));
    }

  type ('v, 'a) case = { tag : int; fields : 'a t; make : 'a -> 'v }
  type 'v any_case = Any : ('v, 'a) case -> 'v any_case
  type 'v variant = { what : string; cases : 'v any_case option array }
  type 'v value = Value : ('v, 'a) case * 'a -> 'v value

  let variant what = { what; cases = Array.make 256 None }

  let case v tag fields make =
    if Option.is_some v.cases.(tag) then
      invalid_arg (Printf.sprintf "Trace.Wire.case: duplicate %s %d" v.what tag);
    let c = { tag; fields; make } in
    v.cases.(tag) <- Some (Any c);
    c

  let write b c x =
    u8.put b c.tag;
    c.fields.put b x

  let read v r =
    let tag = u8.get r in
    match v.cases.(tag) with
    | Some (Any c) -> c.make (c.fields.get r)
    | None -> raise (Malformed (Printf.sprintf "unknown %s %d" v.what tag))

  let tagged v view =
    { put = (fun b x -> match view x with Value (c, f) -> write b c f); get = read v }
  let tag_of view x = match view x with Value (c, _) -> c.tag

  let encode f x =
    let b = Buffer.create 64 in
    f.put b x;
    Buffer.contents b

  let decode f src =
    let r = { src; pos = 0 } in
    match f.get r with
    | v when r.pos = String.length src -> Some v
    | _ -> None
    | exception (Truncated | Malformed _) -> None
end

(* --- events ----------------------------------------------------------- *)

type mem_op =
  | Op_read_u64
  | Op_write_u64
  | Op_read_bytes
  | Op_write_bytes
  | Op_user_read_u64
  | Op_user_write_u64
  | Op_probe_u64

(* in wire-code order *)
let mem_op_names =
  [
    (Op_read_u64, "read_u64");
    (Op_write_u64, "write_u64");
    (Op_read_bytes, "read_bytes");
    (Op_write_bytes, "write_bytes");
    (Op_user_read_u64, "user_read_u64");
    (Op_user_write_u64, "user_write_u64");
    (Op_probe_u64, "probe_u64");
  ]

let mem_op = Wire.enum "mem_op" (List.mapi (fun code (op, _) -> (code, op)) mem_op_names)

type event =
  | Hypercall of { domid : int; number : int; digest : int64; payload : string }
  | Guest_mem of { domid : int; op : mem_op; va : int64; len : int; data : string }
  | Guest_invlpg of { domid : int; va : int64 }
  | Kernel_tick of { domid : int }
  | Sched_round
  | Net_listen of { host : string; port : int }
  | Net_cmd of { to_host : string; port : int; conn_id : int; cmd : string }
  | Xenstore_write of { caller : int; injected : bool; path : string; value : string }
  | Hypercall_ret of { domid : int; number : int; rc : int64; failed : bool }
  | Fault of { vector : int; escalation : int }
  | Tlb_flush_all
  | Tlb_invlpg of { va : int64 }
  | Page_type of { mfn : int; from_type : int; to_type : int }
  | Grant_op of { domid : int; op : int }
  | Evtchn_op of { domid : int; op : int }
  | Injector_access of { action : int; addr : int64; len : int }
  | Console of { len : int; digest : int64 }
  | Monitor_verdict of { violations : int; classes : int }
  | Panic of { reason : string }
  | Vmi_scan of { detector : string; findings : int; frames : int }
  | Backend_op of { op : int; arg1 : int64; arg2 : int64; data : string }
      (* a backend-specific boundary crossing (KVM ioctl, VM entry,
         fault delivery); carries its payload so writes replay *)
  | Provenance_edge of { consumer : int; mfn : int; off : int; len : int; labels : int list }
      (* a consumer interpreted tainted bytes: links this record's seq
         to the origin labels of the bytes read (see Provenance) *)
  | Scn_edge of { section : int; prev : int; pc : int }
      (* one executed scenario-VM instruction (prev-pc -> pc edge);
         boundary, so replay can refeed the coverage map without
         re-running the scenario VM *)

(* One descriptor per event kind: its record code (the case's tag), its
   name, whether replay applies it, whether it feeds coverage's record
   axis, its wire fields and its printer (which follows the name). *)
type 'a kind = {
  case : (event, 'a) Wire.case;
  name : string;
  boundary : bool;
  covered : bool;
  pp : Format.formatter -> 'a -> unit;
}

type view = View : 'a kind * 'a -> view

let record_codes = Wire.variant "record code"

let kind ?(boundary = false) ?(covered = true) code name fields make pp =
  { case = Wire.case record_codes code fields make; name; boundary; covered; pp }

let nothing _ () = ()
let pf = Format.fprintf

let hypercall =
  kind 1 "hypercall" ~boundary:true Wire.(u32 & u32 & i64 & str)
    (fun (domid, (number, (digest, payload))) -> Hypercall { domid; number; digest; payload })
    (fun ppf (domid, (number, (digest, payload))) ->
      pf ppf " d%d nr=%d digest=%016Lx %s" domid number digest
        (if payload = "" then "(nested)" else Printf.sprintf "payload=%dB" (String.length payload)))

let guest_mem =
  kind 2 "guest_mem" ~boundary:true Wire.(u32 & mem_op & i64 & u32 & str)
    (fun (domid, (op, (va, (len, data)))) -> Guest_mem { domid; op; va; len; data })
    (fun ppf (domid, (op, (va, (len, _)))) ->
      pf ppf " d%d %s va=%016Lx len=%d" domid (List.assoc op mem_op_names) va len)

let guest_invlpg =
  kind 3 "guest_invlpg" ~boundary:true Wire.(u32 & i64)
    (fun (domid, va) -> Guest_invlpg { domid; va })
    (fun ppf (domid, va) -> pf ppf " d%d va=%016Lx" domid va)

let kernel_tick =
  kind 4 "kernel_tick" ~boundary:true Wire.u32
    (fun domid -> Kernel_tick { domid })
    (fun ppf domid -> pf ppf " d%d" domid)

let sched_round = kind 5 "sched_round" ~boundary:true Wire.unit (fun () -> Sched_round) nothing

let net_listen =
  kind 6 "net_listen" ~boundary:true Wire.(str & u32)
    (fun (host, port) -> Net_listen { host; port })
    (fun ppf (host, port) -> pf ppf " %s:%d" host port)

let net_cmd =
  kind 7 "net_cmd" ~boundary:true Wire.(str & u32 & u32 & str)
    (fun (to_host, (port, (conn_id, cmd))) -> Net_cmd { to_host; port; conn_id; cmd })
    (fun ppf (to_host, (port, (conn_id, cmd))) -> pf ppf " %s:%d#%d %S" to_host port conn_id cmd)

let xenstore_write =
  kind 8 "xenstore_write" ~boundary:true Wire.(u32 & flag & str & str)
    (fun (caller, (injected, (path, value))) -> Xenstore_write { caller; injected; path; value })
    (fun ppf (caller, (injected, (path, value))) ->
      pf ppf " d%d%s %s=%S" caller (if injected then " (injected)" else "") path value)

let hypercall_ret =
  kind 16 "hypercall_ret" Wire.(u32 & u32 & i64 & flag)
    (fun (domid, (number, (rc, failed))) -> Hypercall_ret { domid; number; rc; failed })
    (fun ppf (domid, (number, (rc, failed))) ->
      pf ppf " d%d nr=%d rc=%Ld%s" domid number rc (if failed then " (failed)" else ""))

let fault =
  kind 17 "fault" Wire.(u32 & u8)
    (fun (vector, escalation) -> Fault { vector; escalation })
    (fun ppf (vector, escalation) ->
      pf ppf " vector=%d %s" vector
        (match escalation with 0 -> "handled" | 1 -> "double_fault" | _ -> "triple_fault"))

let tlb_flush_all = kind 18 "tlb_flush_all" Wire.unit (fun () -> Tlb_flush_all) nothing

let tlb_invlpg =
  kind 19 "tlb_invlpg" Wire.i64 (fun va -> Tlb_invlpg { va }) (fun ppf va -> pf ppf " va=%016Lx" va)

let page_type =
  kind 20 "page_type" Wire.(u32 & u8 & u8)
    (fun (mfn, (from_type, to_type)) -> Page_type { mfn; from_type; to_type })
    (fun ppf (mfn, (from_type, to_type)) -> pf ppf " mfn=%d %d->%d" mfn from_type to_type)

let grant_op =
  kind 21 "grant_op" Wire.(u32 & u8)
    (fun (domid, op) -> Grant_op { domid; op })
    (fun ppf (domid, op) -> pf ppf " d%d op=%d" domid op)

let evtchn_op =
  kind 22 "evtchn_op" Wire.(u32 & u8)
    (fun (domid, op) -> Evtchn_op { domid; op })
    (fun ppf (domid, op) -> pf ppf " d%d op=%d" domid op)

let injector_access =
  kind 23 "injector_access" Wire.(u8 & i64 & u32)
    (fun (action, (addr, len)) -> Injector_access { action; addr; len })
    (fun ppf (action, (addr, len)) -> pf ppf " action=%d addr=%016Lx len=%d" action addr len)

let console =
  kind 24 "console" Wire.(u32 & i64)
    (fun (len, digest) -> Console { len; digest })
    (fun ppf (len, digest) -> pf ppf " len=%d digest=%016Lx" len digest)

(* the violation axis carries the verdict *)
let monitor_verdict =
  kind 25 "monitor_verdict" ~covered:false Wire.(u32 & u32)
    (fun (violations, classes) -> Monitor_verdict { violations; classes })
    (fun ppf (violations, classes) -> pf ppf " violations=%d classes=%#x" violations classes)

let panic =
  kind 26 "panic" Wire.str (fun reason -> Panic { reason }) (fun ppf reason -> pf ppf " %S" reason)

(* only a recording's observer scans; replay never re-runs it *)
let vmi_scan =
  kind 27 "vmi_scan" ~covered:false Wire.(str & u32 & u32)
    (fun (detector, (findings, frames)) -> Vmi_scan { detector; findings; frames })
    (fun ppf (detector, (findings, frames)) ->
      pf ppf " %s findings=%d frames=%d" detector findings frames)

let backend_op =
  kind 28 "backend_op" ~boundary:true Wire.(u32 & i64 & i64 & str)
    (fun (op, (arg1, (arg2, data))) -> Backend_op { op; arg1; arg2; data })
    (fun ppf (op, (arg1, (arg2, data))) ->
      pf ppf " op=%d arg1=%016Lx arg2=%016Lx data=%dB" op arg1 arg2 (String.length data))

let provenance_edge =
  kind 29 "provenance_edge" Wire.(u8 & u32 & u32 & u32 & list u8 u8)
    (fun (consumer, (mfn, (off, (len, labels)))) ->
      Provenance_edge { consumer; mfn; off; len; labels })
    (fun ppf (consumer, (mfn, (off, (len, labels)))) ->
      pf ppf " consumer=%d mfn=%d off=%d len=%d labels=[%s]" consumer mfn off len
        (String.concat "," (List.map string_of_int labels)))

let scn_edge =
  kind 30 "scn_edge" ~boundary:true Wire.(u8 & u32 & u32)
    (fun (section, (prev, pc)) -> Scn_edge { section; prev; pc })
    (fun ppf (section, (prev, pc)) -> pf ppf " section=%d %d->%d" section prev pc)

let view = function
  | Hypercall { domid; number; digest; payload } ->
      View (hypercall, (domid, (number, (digest, payload))))
  | Guest_mem { domid; op; va; len; data } -> View (guest_mem, (domid, (op, (va, (len, data)))))
  | Guest_invlpg { domid; va } -> View (guest_invlpg, (domid, va))
  | Kernel_tick { domid } -> View (kernel_tick, domid)
  | Sched_round -> View (sched_round, ())
  | Net_listen { host; port } -> View (net_listen, (host, port))
  | Net_cmd { to_host; port; conn_id; cmd } -> View (net_cmd, (to_host, (port, (conn_id, cmd))))
  | Xenstore_write { caller; injected; path; value } ->
      View (xenstore_write, (caller, (injected, (path, value))))
  | Hypercall_ret { domid; number; rc; failed } ->
      View (hypercall_ret, (domid, (number, (rc, failed))))
  | Fault { vector; escalation } -> View (fault, (vector, escalation))
  | Tlb_flush_all -> View (tlb_flush_all, ())
  | Tlb_invlpg { va } -> View (tlb_invlpg, va)
  | Page_type { mfn; from_type; to_type } -> View (page_type, (mfn, (from_type, to_type)))
  | Grant_op { domid; op } -> View (grant_op, (domid, op))
  | Evtchn_op { domid; op } -> View (evtchn_op, (domid, op))
  | Injector_access { action; addr; len } -> View (injector_access, (action, (addr, len)))
  | Console { len; digest } -> View (console, (len, digest))
  | Monitor_verdict { violations; classes } -> View (monitor_verdict, (violations, classes))
  | Panic { reason } -> View (panic, reason)
  | Vmi_scan { detector; findings; frames } -> View (vmi_scan, (detector, (findings, frames)))
  | Backend_op { op; arg1; arg2; data } -> View (backend_op, (op, (arg1, (arg2, data))))
  | Provenance_edge { consumer; mfn; off; len; labels } ->
      View (provenance_edge, (consumer, (mfn, (off, (len, labels)))))
  | Scn_edge { section; prev; pc } -> View (scn_edge, (section, (prev, pc)))

(* A hypercall recorded without its payload was nested: replay
   regenerates it. *)
let is_boundary = function
  | Hypercall { payload = ""; _ } -> false
  | ev -> ( match view ev with View (k, _) -> k.boundary)

let pp_event ppf ev =
  match view ev with
  | View (k, fields) ->
      Format.pp_print_string ppf k.name;
      k.pp ppf fields

(* --- the ring --------------------------------------------------------- *)

type record = { seq : int; vts : int64; event : event }

(* Hypercall counts keyed by number; a number is its own hash. *)
module Counts = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash n = n land max_int
end)

type t = {
  mutable enabled : bool;
  mutable buf : Bytes.t;
  mutable start : int;  (* offset of the oldest live byte *)
  mutable used : int;
  mutable seq_next : int;
  mutable dropped : int;
  mutable depth : int;
  vclock : Vclock.t;
  scratch : Buffer.t;
  mutable cov : Coverage.t option;
      (* coverage collector; detached by default — one option match per
         instrumented site *)
  (* the always-on counters; {!mark} and {!rewind} carry every one *)
  hypercalls : int ref Counts.t;  (* calls by hypercall number *)
  mutable hypercalls_failed : int;
  mutable faults : int;
  mutable double_faults : int;
  mutable flushes : int;
  mutable invlpgs : int;
  mutable page_type_changes : int;
  mutable grant_ops : int;
  mutable evtchn_ops : int;
  mutable injector_accesses : int;
  mutable vmi_scans : int;
  mutable vmi_findings : int;
  mutable vmi_frames : int;
}

let default_capacity = 4 * 1024 * 1024

let create () =
  {
    enabled = false;
    buf = Bytes.create 0;
    start = 0;
    used = 0;
    seq_next = 0;
    dropped = 0;
    depth = 0;
    vclock = Vclock.create ();
    scratch = Buffer.create 256;
    cov = None;
    hypercalls = Counts.create 17;
    hypercalls_failed = 0;
    faults = 0;
    double_faults = 0;
    flushes = 0;
    invlpgs = 0;
    page_type_changes = 0;
    grant_ops = 0;
    evtchn_ops = 0;
    injector_accesses = 0;
    vmi_scans = 0;
    vmi_findings = 0;
    vmi_frames = 0;
  }

let recording t = t.enabled
let coverage t = t.cov
let set_coverage t c = t.cov <- c
let dropped t = t.dropped
let seq t = t.seq_next
let vclock t = t.vclock
let vts t = Vclock.now t.vclock
let charge t op = Vclock.charge t.vclock op
let charge_n t op n = Vclock.charge_n t.vclock op n

let clear t =
  t.start <- 0;
  t.used <- 0;
  t.seq_next <- 0;
  t.dropped <- 0

let enable ?(capacity_bytes = default_capacity) t =
  if capacity_bytes < 64 then invalid_arg "Trace.enable: capacity too small";
  if Bytes.length t.buf <> capacity_bytes then t.buf <- Bytes.create capacity_bytes;
  clear t;
  t.enabled <- true

let disable t = t.enabled <- false
let leave t = if t.depth > 0 then t.depth <- t.depth - 1

let within3 t f a b c =
  t.depth <- t.depth + 1;
  match f a b c with
  | r ->
      leave t;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave t;
      Printexc.raise_with_backtrace e bt

let apply f x () = f x
let within t f x = within3 t apply f x ()

let top_level t = t.depth = 0

(* Modular arithmetic over the byte ring: a frame may wrap the end of
   [buf], so reads and writes happen in at most two pieces. *)

let ring_read_u32 t off =
  let cap = Bytes.length t.buf in
  let b i = Bytes.get_uint8 t.buf ((t.start + off + i) mod cap) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let evict_oldest t =
  let frame = 4 + ring_read_u32 t 0 in
  t.start <- (t.start + frame) mod Bytes.length t.buf;
  t.used <- t.used - frame;
  t.dropped <- t.dropped + 1

let ring_write_u32 t off v =
  let cap = Bytes.length t.buf in
  for i = 0 to 3 do
    Bytes.set_uint8 t.buf ((t.start + off + i) mod cap) ((v lsr (8 * i)) land 0xff)
  done

let ring_append t (src : Buffer.t) =
  let cap = Bytes.length t.buf in
  let n = Buffer.length src in
  let tail = (t.start + t.used) mod cap in
  let first = min n (cap - tail) in
  Buffer.blit src 0 t.buf tail first;
  if n > first then Buffer.blit src first t.buf 0 (n - first);
  t.used <- t.used + n

let emit t event =
  if t.enabled then
    match view event with
    | View (k, fields) ->
        (match t.cov with Some c when k.covered -> Coverage.note_record c k.case.tag | _ -> ());
        let s = t.seq_next in
        t.seq_next <- s + 1;
        let b = t.scratch in
        Buffer.clear b;
        (* frame: [u32 len | u32 seq | i64 vts | u8 code | payload]; the
           length is patched in once the frame is in the ring *)
        Wire.u32.put b 0;
        Wire.u32.put b s;
        Wire.i64.put b (Vclock.now t.vclock);
        Wire.write b k.case fields;
        let frame = Buffer.length b in
        let cap = Bytes.length t.buf in
        if frame > cap then t.dropped <- t.dropped + 1
        else begin
          while t.used + frame > cap do
            evict_oldest t
          done;
          let at = t.used in
          ring_append t b;
          ring_write_u32 t at (frame - 4)
        end

let to_bytes t =
  let cap = Bytes.length t.buf in
  if t.used = 0 then ""
  else begin
    let out = Bytes.create t.used in
    let first = min t.used (cap - t.start) in
    Bytes.blit t.buf t.start out 0 first;
    if t.used > first then Bytes.blit t.buf 0 out first (t.used - first);
    Bytes.unsafe_to_string out
  end

let fail_malformed f x =
  try f x with
  | Wire.Truncated -> failwith "Trace: truncated record"
  | Wire.Malformed what -> failwith ("Trace: " ^ what)

let records_of_string src =
  let r = { Wire.src; pos = 0 } in
  let rec go acc =
    if r.pos >= String.length src then List.rev acc
    else begin
      let body = Wire.u32.get r in
      let stop = r.pos + body in
      let seq = Wire.u32.get r in
      let vts = Wire.i64.get r in
      let event = Wire.read record_codes r in
      if r.pos <> stop then failwith "Trace: record length mismatch";
      go ({ seq; vts; event } :: acc)
    end
  in
  fail_malformed go []

let records t = records_of_string (to_bytes t)

(* Re-frame a current image into the v1 layout (no [vts] word), so
   fixtures captured before the format bump stay comparable: the
   seq/code/payload bytes of each frame are preserved verbatim. *)
let strip_vts src =
  let r = { Wire.src; pos = 0 } in
  let b = Buffer.create (String.length src) in
  let rec go () =
    if r.pos >= String.length src then Buffer.contents b
    else begin
      let body = Wire.u32.get r in
      let stop = r.pos + body in
      let seq = Wire.u32.get r in
      let _vts = Wire.i64.get r in
      Wire.need r (stop - r.pos);
      Wire.u32.put b (body - 8);
      Wire.u32.put b seq;
      Buffer.add_substring b src r.pos (stop - r.pos);
      r.pos <- stop;
      go ()
    end
  in
  fail_malformed go ()

(* --- counters ----------------------------------------------------------- *)

(* one int-keyed lookup and an in-place increment: counting a call
   allocates nothing once its number has been seen *)
let note_hypercall t ~number ~failed =
  (match Counts.find t.hypercalls number with
  | calls -> incr calls
  | exception Not_found -> Counts.add t.hypercalls number (ref 1));
  if failed then t.hypercalls_failed <- t.hypercalls_failed + 1

let note_fault t ~double =
  t.faults <- t.faults + 1;
  if double then t.double_faults <- t.double_faults + 1

let note_flush t = t.flushes <- t.flushes + 1
let note_invlpg t = t.invlpgs <- t.invlpgs + 1
let note_page_type t = t.page_type_changes <- t.page_type_changes + 1
let note_grant t = t.grant_ops <- t.grant_ops + 1
let note_evtchn t = t.evtchn_ops <- t.evtchn_ops + 1
let note_injector t = t.injector_accesses <- t.injector_accesses + 1
let injector_accesses t = t.injector_accesses

let note_vmi_scan t ~findings ~frames =
  t.vmi_scans <- t.vmi_scans + 1;
  t.vmi_findings <- t.vmi_findings + findings;
  t.vmi_frames <- t.vmi_frames + frames

type telemetry = {
  tm_hypercalls : (int * int) list;
  tm_hypercalls_failed : int;
  tm_faults : int;
  tm_double_faults : int;
  tm_flushes : int;
  tm_invlpgs : int;
  tm_page_type_changes : int;
  tm_grant_ops : int;
  tm_evtchn_ops : int;
  tm_injector_accesses : int;
  tm_vmi_scans : int;
  tm_vmi_findings : int;
  tm_vmi_frames : int;
}

let telemetry t =
  {
    tm_hypercalls = List.sort compare (Counts.fold (fun n c acc -> (n, !c) :: acc) t.hypercalls []);
    tm_hypercalls_failed = t.hypercalls_failed;
    tm_faults = t.faults;
    tm_double_faults = t.double_faults;
    tm_flushes = t.flushes;
    tm_invlpgs = t.invlpgs;
    tm_page_type_changes = t.page_type_changes;
    tm_grant_ops = t.grant_ops;
    tm_evtchn_ops = t.evtchn_ops;
    tm_injector_accesses = t.injector_accesses;
    tm_vmi_scans = t.vmi_scans;
    tm_vmi_findings = t.vmi_findings;
    tm_vmi_frames = t.vmi_frames;
  }

let delta ~before ~after =
  let base n = Option.value ~default:0 (List.assoc_opt n before.tm_hypercalls) in
  {
    tm_hypercalls =
      List.filter_map
        (fun (n, c) ->
          let d = c - base n in
          if d > 0 then Some (n, d) else None)
        after.tm_hypercalls;
    tm_hypercalls_failed = after.tm_hypercalls_failed - before.tm_hypercalls_failed;
    tm_faults = after.tm_faults - before.tm_faults;
    tm_double_faults = after.tm_double_faults - before.tm_double_faults;
    tm_flushes = after.tm_flushes - before.tm_flushes;
    tm_invlpgs = after.tm_invlpgs - before.tm_invlpgs;
    tm_page_type_changes = after.tm_page_type_changes - before.tm_page_type_changes;
    tm_grant_ops = after.tm_grant_ops - before.tm_grant_ops;
    tm_evtchn_ops = after.tm_evtchn_ops - before.tm_evtchn_ops;
    tm_injector_accesses = after.tm_injector_accesses - before.tm_injector_accesses;
    tm_vmi_scans = after.tm_vmi_scans - before.tm_vmi_scans;
    tm_vmi_findings = after.tm_vmi_findings - before.tm_vmi_findings;
    tm_vmi_frames = after.tm_vmi_frames - before.tm_vmi_frames;
  }

let total_hypercalls tm = List.fold_left (fun acc (_, c) -> acc + c) 0 tm.tm_hypercalls

(* --- rollback ----------------------------------------------------------- *)

type mark = { m_counters : telemetry; m_vts : int64 }

let mark t = { m_counters = telemetry t; m_vts = vts t }

let rec replace_counts tbl = function
  | [] -> ()
  | (n, k) :: rest ->
      Counts.replace tbl n (ref k);
      replace_counts tbl rest

let rewind t { m_counters = c; m_vts } =
  Counts.reset t.hypercalls;
  replace_counts t.hypercalls c.tm_hypercalls;
  t.hypercalls_failed <- c.tm_hypercalls_failed;
  t.faults <- c.tm_faults;
  t.double_faults <- c.tm_double_faults;
  t.flushes <- c.tm_flushes;
  t.invlpgs <- c.tm_invlpgs;
  t.page_type_changes <- c.tm_page_type_changes;
  t.grant_ops <- c.tm_grant_ops;
  t.evtchn_ops <- c.tm_evtchn_ops;
  t.injector_accesses <- c.tm_injector_accesses;
  t.vmi_scans <- c.tm_vmi_scans;
  t.vmi_findings <- c.tm_vmi_findings;
  t.vmi_frames <- c.tm_vmi_frames;
  Vclock.set t.vclock m_vts

let fork template m =
  let t = create () in
  rewind t m;
  Vclock.set_model t.vclock (Vclock.model template.vclock);
  t

(* --- detection latency ------------------------------------------------ *)

let detection_latency_ns records =
  let injection =
    List.find_opt (fun r -> match r.event with Injector_access _ -> true | _ -> false) records
  in
  match injection with
  | None -> None
  | Some inj ->
      List.find_map
        (fun r ->
          match r.event with
          | Monitor_verdict { violations; _ } when violations > 0 && r.seq > inj.seq ->
              Some (Int64.sub r.vts inj.vts)
          | _ -> None)
        records

(* --- rendering -------------------------------------------------------- *)

let json_of_records records =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"seq\": %d, \"vts\": %Ld, \"event\": \"%s\", \"boundary\": %b, \"detail\": \"%s\"}"
           r.seq r.vts
           (match view r.event with View (k, _) -> k.name)
           (is_boundary r.event)
           (Metrics.json_escape (Format.asprintf "%a" pp_event r.event))))
    records;
  Buffer.add_string b "\n]";
  Buffer.contents b
