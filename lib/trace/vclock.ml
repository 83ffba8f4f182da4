(* Deterministic virtual clock. See vclock.mli for the contract. *)

type op =
  | Hypercall_dispatch
  | Page_walk_step
  | Tlb_hit
  | Tlb_miss
  | Pte_install
  | Fault_delivery
  | Guest_mem_op
  | Xenstore_write
  | Netsim_cmd
  | Vmi_scan_frame
  | Kvm_ioctl
  | Vm_entry
  | Grant_map
  | Evtchn_send
  | Dm_io

(* Every priced operation once: (op, config key, default ns), in [op]
   declaration order. The defaults are anchored on a real-time
   distribution of injector hypercall dispatch (the dominant mass sat
   in the sub-microsecond buckets; perfbench's hypercall.dispatch_ns
   measures it); the other entries scale from published litmus numbers
   for the same micro-operations on commodity x86. *)
let table =
  [|
    (Hypercall_dispatch, "hypercall_dispatch", 480L);
    (Page_walk_step, "page_walk_step", 25L);
    (Tlb_hit, "tlb_hit", 2L);
    (Tlb_miss, "tlb_miss", 30L);
    (Pte_install, "pte_install", 90L);
    (Fault_delivery, "fault_delivery", 350L);
    (Guest_mem_op, "guest_mem_op", 40L);
    (Xenstore_write, "xenstore_write", 1200L);
    (Netsim_cmd, "netsim_cmd", 4000L);
    (Vmi_scan_frame, "vmi_scan_frame", 150L);
    (Kvm_ioctl, "kvm_ioctl", 900L);
    (Vm_entry, "vm_entry", 650L);
    (Grant_map, "grant_map", 260L);
    (Evtchn_send, "evtchn_send", 110L);
    (Dm_io, "dm_io", 1500L);
  |]

(* A constant constructor is the immediate int of its declaration
   position, so it indexes [table] (and a cost model) directly. *)
external index : op -> int = "%identity"

let () = Array.iteri (fun i (op, _, _) -> assert (index op = i)) table
let op_name op = match table.(index op) with _, k, _ -> k

module Cost_model = struct
  type t = int64 array

  let default = Array.map (fun (_, _, ns) -> ns) table
  let to_assoc m = Array.to_list (Array.mapi (fun i (_, k, _) -> (k, m.(i))) table)

  let to_string m =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s = %Ld\n" k v) (to_assoc m))

  let with_key m k v =
    Option.map
      (fun i ->
        let m = Array.copy m in
        m.(i) <- v;
        m)
      (Array.find_index (fun (_, key, _) -> key = k) table)

  let of_string src =
    let err lineno msg = Error (Printf.sprintf "cost model line %d: %s" lineno msg) in
    let rec go m lineno = function
      | [] -> Ok m
      | line :: rest -> (
          let line =
            match String.index_opt line '#' with
            | Some i -> String.sub line 0 i
            | None -> line
          in
          let line = String.trim line in
          if line = "" then go m (lineno + 1) rest
          else
            match String.index_opt line '=' with
            | None -> err lineno "expected key = ns"
            | Some i -> (
                let k = String.trim (String.sub line 0 i) in
                let v =
                  String.trim (String.sub line (i + 1) (String.length line - i - 1))
                in
                match Int64.of_string_opt v with
                | None -> err lineno (Printf.sprintf "bad value %S for %s" v k)
                | Some ns when ns < 0L ->
                    err lineno (Printf.sprintf "negative cost for %s" k)
                | Some ns when ns > Int64.of_int max_int ->
                    (* the clock counts in a native int *)
                    err lineno (Printf.sprintf "cost for %s exceeds %d ns" k max_int)
                | Some ns -> (
                    match with_key m k ns with
                    | None -> err lineno (Printf.sprintf "unknown key %S" k)
                    | Some m -> go m (lineno + 1) rest)))
    in
    go default 1 (String.split_on_char '\n' src)

  (* an I/O error from the runtime already names the file *)
  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | src -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string src)
    | exception Sys_error msg -> Error msg
end

let cost (m : Cost_model.t) op = m.(index op)

(* [now] is an unboxed int of ns, so a charge allocates nothing; the
   API stays int64. *)
type t = { mutable now : int; mutable model : Cost_model.t }

let create ?(model = Cost_model.default) () = { now = 0; model }
let now t = Int64.of_int t.now
let set t ns = t.now <- Int64.to_int ns
let model t = t.model
let set_model t m = t.model <- m
let charge t op = t.now <- t.now + Int64.to_int (cost t.model op)
let charge_n t op n = if n > 0 then t.now <- t.now + (n * Int64.to_int (cost t.model op))
