(* Event tracer: always-on scalar counters plus an optional binary ring
   of typed records (xentrace style). See trace.mli for the contract. *)

(* --- events ----------------------------------------------------------- *)

type mem_op =
  | Op_read_u64
  | Op_write_u64
  | Op_read_bytes
  | Op_write_bytes
  | Op_user_read_u64
  | Op_user_write_u64
  | Op_probe_u64

let mem_op_code = function
  | Op_read_u64 -> 0
  | Op_write_u64 -> 1
  | Op_read_bytes -> 2
  | Op_write_bytes -> 3
  | Op_user_read_u64 -> 4
  | Op_user_write_u64 -> 5
  | Op_probe_u64 -> 6

let mem_op_of_code = function
  | 0 -> Some Op_read_u64
  | 1 -> Some Op_write_u64
  | 2 -> Some Op_read_bytes
  | 3 -> Some Op_write_bytes
  | 4 -> Some Op_user_read_u64
  | 5 -> Some Op_user_write_u64
  | 6 -> Some Op_probe_u64
  | _ -> None

let mem_op_name = function
  | Op_read_u64 -> "read_u64"
  | Op_write_u64 -> "write_u64"
  | Op_read_bytes -> "read_bytes"
  | Op_write_bytes -> "write_bytes"
  | Op_user_read_u64 -> "user_read_u64"
  | Op_user_write_u64 -> "user_write_u64"
  | Op_probe_u64 -> "probe_u64"

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

let is_boundary = function
  | Hypercall { payload; _ } -> payload <> ""
  | Guest_mem _ | Guest_invlpg _ | Kernel_tick _ | Sched_round | Net_listen _ | Net_cmd _
  | Xenstore_write _ | Backend_op _ | Scn_edge _ ->
      true
  | Hypercall_ret _ | Fault _ | Tlb_flush_all | Tlb_invlpg _ | Page_type _ | Grant_op _
  | Evtchn_op _ | Injector_access _ | Console _ | Monitor_verdict _ | Panic _ | Vmi_scan _
  | Provenance_edge _ ->
      false

let event_name = function
  | Hypercall _ -> "hypercall"
  | Guest_mem _ -> "guest_mem"
  | Guest_invlpg _ -> "guest_invlpg"
  | Kernel_tick _ -> "kernel_tick"
  | Sched_round -> "sched_round"
  | Net_listen _ -> "net_listen"
  | Net_cmd _ -> "net_cmd"
  | Xenstore_write _ -> "xenstore_write"
  | Hypercall_ret _ -> "hypercall_ret"
  | Fault _ -> "fault"
  | Tlb_flush_all -> "tlb_flush_all"
  | Tlb_invlpg _ -> "tlb_invlpg"
  | Page_type _ -> "page_type"
  | Grant_op _ -> "grant_op"
  | Evtchn_op _ -> "evtchn_op"
  | Injector_access _ -> "injector_access"
  | Console _ -> "console"
  | Monitor_verdict _ -> "monitor_verdict"
  | Panic _ -> "panic"
  | Vmi_scan _ -> "vmi_scan"
  | Backend_op _ -> "backend_op"
  | Provenance_edge _ -> "provenance_edge"
  | Scn_edge _ -> "scn_edge"

let code_of_event = function
  | Hypercall _ -> 1
  | Guest_mem _ -> 2
  | Guest_invlpg _ -> 3
  | Kernel_tick _ -> 4
  | Sched_round -> 5
  | Net_listen _ -> 6
  | Net_cmd _ -> 7
  | Xenstore_write _ -> 8
  | Hypercall_ret _ -> 16
  | Fault _ -> 17
  | Tlb_flush_all -> 18
  | Tlb_invlpg _ -> 19
  | Page_type _ -> 20
  | Grant_op _ -> 21
  | Evtchn_op _ -> 22
  | Injector_access _ -> 23
  | Console _ -> 24
  | Monitor_verdict _ -> 25
  | Panic _ -> 26
  | Vmi_scan _ -> 27
  | Backend_op _ -> 28
  | Provenance_edge _ -> 29
  | Scn_edge _ -> 30

(* --- wire codec ------------------------------------------------------- *)

(* The one little-endian framing of the trace ring and of recorded
   hypercall payloads: u8 tags, u32 scalars, i64 words, u32-length
   strings. *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_le b v

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let encode_payload b = function
  | Hypercall { domid; number; digest; payload } ->
      put_u32 b domid;
      put_u32 b number;
      put_i64 b digest;
      put_str b payload
  | Guest_mem { domid; op; va; len; data } ->
      put_u32 b domid;
      put_u8 b (mem_op_code op);
      put_i64 b va;
      put_u32 b len;
      put_str b data
  | Guest_invlpg { domid; va } ->
      put_u32 b domid;
      put_i64 b va
  | Kernel_tick { domid } -> put_u32 b domid
  | Sched_round -> ()
  | Net_listen { host; port } ->
      put_str b host;
      put_u32 b port
  | Net_cmd { to_host; port; conn_id; cmd } ->
      put_str b to_host;
      put_u32 b port;
      put_u32 b conn_id;
      put_str b cmd
  | Xenstore_write { caller; injected; path; value } ->
      put_u32 b caller;
      put_u8 b (if injected then 1 else 0);
      put_str b path;
      put_str b value
  | Hypercall_ret { domid; number; rc; failed } ->
      put_u32 b domid;
      put_u32 b number;
      put_i64 b rc;
      put_u8 b (if failed then 1 else 0)
  | Fault { vector; escalation } ->
      put_u32 b vector;
      put_u8 b escalation
  | Tlb_flush_all -> ()
  | Tlb_invlpg { va } -> put_i64 b va
  | Page_type { mfn; from_type; to_type } ->
      put_u32 b mfn;
      put_u8 b from_type;
      put_u8 b to_type
  | Grant_op { domid; op } ->
      put_u32 b domid;
      put_u8 b op
  | Evtchn_op { domid; op } ->
      put_u32 b domid;
      put_u8 b op
  | Injector_access { action; addr; len } ->
      put_u8 b action;
      put_i64 b addr;
      put_u32 b len
  | Console { len; digest } ->
      put_u32 b len;
      put_i64 b digest
  | Monitor_verdict { violations; classes } ->
      put_u32 b violations;
      put_u32 b classes
  | Panic { reason } -> put_str b reason
  | Vmi_scan { detector; findings; frames } ->
      put_str b detector;
      put_u32 b findings;
      put_u32 b frames
  | Backend_op { op; arg1; arg2; data } ->
      put_u32 b op;
      put_i64 b arg1;
      put_i64 b arg2;
      put_str b data
  | Provenance_edge { consumer; mfn; off; len; labels } ->
      put_u8 b consumer;
      put_u32 b mfn;
      put_u32 b off;
      put_u32 b len;
      put_u8 b (List.length labels);
      List.iter (put_u8 b) labels
  | Scn_edge { section; prev; pc } ->
      put_u8 b section;
      put_u32 b prev;
      put_u32 b pc

type cursor = { src : string; mutable pos : int }

exception Truncated

let cursor src = { src; pos = 0 }
let need r n = if n < 0 || r.pos + n > String.length r.src then raise Truncated

let get_u8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.src r.pos) in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let get_str r =
  let n = get_u32 r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let decode_payload code r =
  match code with
  | 1 ->
      let domid = get_u32 r in
      let number = get_u32 r in
      let digest = get_i64 r in
      let payload = get_str r in
      Hypercall { domid; number; digest; payload }
  | 2 ->
      let domid = get_u32 r in
      let op =
        match mem_op_of_code (get_u8 r) with
        | Some op -> op
        | None -> failwith "Trace: bad mem_op"
      in
      let va = get_i64 r in
      let len = get_u32 r in
      let data = get_str r in
      Guest_mem { domid; op; va; len; data }
  | 3 ->
      let domid = get_u32 r in
      let va = get_i64 r in
      Guest_invlpg { domid; va }
  | 4 -> Kernel_tick { domid = get_u32 r }
  | 5 -> Sched_round
  | 6 ->
      let host = get_str r in
      let port = get_u32 r in
      Net_listen { host; port }
  | 7 ->
      let to_host = get_str r in
      let port = get_u32 r in
      let conn_id = get_u32 r in
      let cmd = get_str r in
      Net_cmd { to_host; port; conn_id; cmd }
  | 8 ->
      let caller = get_u32 r in
      let injected = get_u8 r = 1 in
      let path = get_str r in
      let value = get_str r in
      Xenstore_write { caller; injected; path; value }
  | 16 ->
      let domid = get_u32 r in
      let number = get_u32 r in
      let rc = get_i64 r in
      let failed = get_u8 r = 1 in
      Hypercall_ret { domid; number; rc; failed }
  | 17 ->
      let vector = get_u32 r in
      let escalation = get_u8 r in
      Fault { vector; escalation }
  | 18 -> Tlb_flush_all
  | 19 -> Tlb_invlpg { va = get_i64 r }
  | 20 ->
      let mfn = get_u32 r in
      let from_type = get_u8 r in
      let to_type = get_u8 r in
      Page_type { mfn; from_type; to_type }
  | 21 ->
      let domid = get_u32 r in
      let op = get_u8 r in
      Grant_op { domid; op }
  | 22 ->
      let domid = get_u32 r in
      let op = get_u8 r in
      Evtchn_op { domid; op }
  | 23 ->
      let action = get_u8 r in
      let addr = get_i64 r in
      let len = get_u32 r in
      Injector_access { action; addr; len }
  | 24 ->
      let len = get_u32 r in
      let digest = get_i64 r in
      Console { len; digest }
  | 25 ->
      let violations = get_u32 r in
      let classes = get_u32 r in
      Monitor_verdict { violations; classes }
  | 26 -> Panic { reason = get_str r }
  | 27 ->
      let detector = get_str r in
      let findings = get_u32 r in
      let frames = get_u32 r in
      Vmi_scan { detector; findings; frames }
  | 28 ->
      let op = get_u32 r in
      let arg1 = get_i64 r in
      let arg2 = get_i64 r in
      let data = get_str r in
      Backend_op { op; arg1; arg2; data }
  | 29 ->
      let consumer = get_u8 r in
      let mfn = get_u32 r in
      let off = get_u32 r in
      let len = get_u32 r in
      let n = get_u8 r in
      let labels = List.init n (fun _ -> get_u8 r) in
      Provenance_edge { consumer; mfn; off; len; labels }
  | 30 ->
      let section = get_u8 r in
      let prev = get_u32 r in
      let pc = get_u32 r in
      Scn_edge { section; prev; pc }
  | n -> failwith (Printf.sprintf "Trace: unknown record code %d" n)

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

let within t f x =
  t.depth <- t.depth + 1;
  match f x with
  | r ->
      leave t;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave t;
      Printexc.raise_with_backtrace e bt

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

let ring_append t (src : Buffer.t) =
  let cap = Bytes.length t.buf in
  let n = Buffer.length src in
  let tail = (t.start + t.used) mod cap in
  let first = min n (cap - tail) in
  Buffer.blit src 0 t.buf tail first;
  if n > first then Buffer.blit src first t.buf 0 (n - first);
  t.used <- t.used + n

let emit t event =
  if t.enabled then begin
    (match t.cov with
    | Some c ->
        (* feed every record code except detector scans (only a
           recording's observer emits them; replay never re-runs it)
           and the monitor verdict (the violation axis carries it) *)
        let code = code_of_event event in
        if code <> 25 && code <> 27 then Coverage.note_record c code
    | None -> ());
    let s = t.seq_next in
    t.seq_next <- s + 1;
    Buffer.clear t.scratch;
    (* frame: [u32 len | u32 seq | i64 vts | u8 code | payload] *)
    put_u32 t.scratch 0;
    put_u32 t.scratch s;
    put_i64 t.scratch (Vclock.now t.vclock);
    put_u8 t.scratch (code_of_event event);
    encode_payload t.scratch event;
    let frame = Buffer.length t.scratch in
    let body = frame - 4 in
    (* patch the length prefix in place *)
    let img = Buffer.to_bytes t.scratch in
    Bytes.set_int32_le img 0 (Int32.of_int body);
    let cap = Bytes.length t.buf in
    if frame > cap then t.dropped <- t.dropped + 1
    else begin
      while t.used + frame > cap do
        evict_oldest t
      done;
      Buffer.clear t.scratch;
      Buffer.add_bytes t.scratch img;
      ring_append t t.scratch
    end
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

let records_of_string src =
  let r = cursor src in
  let rec go acc =
    if r.pos >= String.length src then List.rev acc
    else begin
      let body = get_u32 r in
      let stop = r.pos + body in
      let seq = get_u32 r in
      let vts = get_i64 r in
      let code = get_u8 r in
      let event = decode_payload code r in
      if r.pos <> stop then failwith "Trace: record length mismatch";
      go ({ seq; vts; event } :: acc)
    end
  in
  try go [] with Truncated -> failwith "Trace: truncated record"

let records t = records_of_string (to_bytes t)

(* Re-frame a current image into the v1 layout (no [vts] word), so
   fixtures captured before the format bump stay comparable: the
   seq/code/payload bytes of each frame are preserved verbatim. *)
let strip_vts src =
  let r = cursor src in
  let b = Buffer.create (String.length src) in
  let rec go () =
    if r.pos >= String.length src then Buffer.contents b
    else begin
      let body = get_u32 r in
      let stop = r.pos + body in
      let seq = get_u32 r in
      let _vts = get_i64 r in
      need r (stop - r.pos);
      let rest = String.sub r.src r.pos (stop - r.pos) in
      r.pos <- stop;
      put_u32 b (body - 8);
      put_u32 b seq;
      Buffer.add_string b rest;
      go ()
    end
  in
  try go () with Truncated -> failwith "Trace: truncated record"

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

let escalation_name = function
  | 0 -> "handled"
  | 1 -> "double_fault"
  | _ -> "triple_fault"

let pp_event ppf = function
  | Hypercall { domid; number; digest; payload } ->
      Format.fprintf ppf "hypercall d%d nr=%d digest=%016Lx %s" domid number digest
        (if payload = "" then "(nested)" else Printf.sprintf "payload=%dB" (String.length payload))
  | Guest_mem { domid; op; va; len; _ } ->
      Format.fprintf ppf "guest_mem d%d %s va=%016Lx len=%d" domid (mem_op_name op) va len
  | Guest_invlpg { domid; va } -> Format.fprintf ppf "guest_invlpg d%d va=%016Lx" domid va
  | Kernel_tick { domid } -> Format.fprintf ppf "kernel_tick d%d" domid
  | Sched_round -> Format.fprintf ppf "sched_round"
  | Net_listen { host; port } -> Format.fprintf ppf "net_listen %s:%d" host port
  | Net_cmd { to_host; port; conn_id; cmd } ->
      Format.fprintf ppf "net_cmd %s:%d#%d %S" to_host port conn_id cmd
  | Xenstore_write { caller; injected; path; value } ->
      Format.fprintf ppf "xenstore_write d%d%s %s=%S" caller
        (if injected then " (injected)" else "")
        path value
  | Hypercall_ret { domid; number; rc; failed } ->
      Format.fprintf ppf "hypercall_ret d%d nr=%d rc=%Ld%s" domid number rc
        (if failed then " (failed)" else "")
  | Fault { vector; escalation } ->
      Format.fprintf ppf "fault vector=%d %s" vector (escalation_name escalation)
  | Tlb_flush_all -> Format.fprintf ppf "tlb_flush_all"
  | Tlb_invlpg { va } -> Format.fprintf ppf "tlb_invlpg va=%016Lx" va
  | Page_type { mfn; from_type; to_type } ->
      Format.fprintf ppf "page_type mfn=%d %d->%d" mfn from_type to_type
  | Grant_op { domid; op } -> Format.fprintf ppf "grant_op d%d op=%d" domid op
  | Evtchn_op { domid; op } -> Format.fprintf ppf "evtchn_op d%d op=%d" domid op
  | Injector_access { action; addr; len } ->
      Format.fprintf ppf "injector_access action=%d addr=%016Lx len=%d" action addr len
  | Console { len; digest } -> Format.fprintf ppf "console len=%d digest=%016Lx" len digest
  | Monitor_verdict { violations; classes } ->
      Format.fprintf ppf "monitor_verdict violations=%d classes=%#x" violations classes
  | Panic { reason } -> Format.fprintf ppf "panic %S" reason
  | Vmi_scan { detector; findings; frames } ->
      Format.fprintf ppf "vmi_scan %s findings=%d frames=%d" detector findings frames
  | Backend_op { op; arg1; arg2; data } ->
      Format.fprintf ppf "backend_op op=%d arg1=%016Lx arg2=%016Lx data=%dB" op arg1 arg2
        (String.length data)
  | Provenance_edge { consumer; mfn; off; len; labels } ->
      Format.fprintf ppf "provenance_edge consumer=%d mfn=%d off=%d len=%d labels=[%s]"
        consumer mfn off len
        (String.concat "," (List.map string_of_int labels))
  | Scn_edge { section; prev; pc } ->
      Format.fprintf ppf "scn_edge section=%d %d->%d" section prev pc

let json_of_records records =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"seq\": %d, \"vts\": %Ld, \"event\": \"%s\", \"boundary\": %b, \"detail\": \"%s\"}"
           r.seq r.vts (event_name r.event) (is_boundary r.event)
           (Metrics.json_escape (Format.asprintf "%a" pp_event r.event))))
    records;
  Buffer.add_string b "\n]";
  Buffer.contents b
