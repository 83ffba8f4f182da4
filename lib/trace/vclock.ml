(* Deterministic virtual clock. See vclock.mli for the contract. *)

module Cost_model = struct
  type t = {
    hypercall_dispatch : int64;
    page_walk_step : int64;
    tlb_hit : int64;
    tlb_miss : int64;
    pte_install : int64;
    fault_delivery : int64;
    guest_mem_op : int64;
    xenstore_write : int64;
    netsim_cmd : int64;
    vmi_scan_frame : int64;
    kvm_ioctl : int64;
    vm_entry : int64;
    grant_map : int64;
    evtchn_send : int64;
    dm_io : int64;
  }

  (* Anchored on a real-time distribution of injector hypercall
     dispatch (the dominant mass sat in the sub-microsecond buckets;
     perfbench's hypercall.dispatch_ns measures it); the other entries
     scale from published litmus numbers for the same micro-operations
     on commodity x86. *)
  let default =
    {
      hypercall_dispatch = 480L;
      page_walk_step = 25L;
      tlb_hit = 2L;
      tlb_miss = 30L;
      pte_install = 90L;
      fault_delivery = 350L;
      guest_mem_op = 40L;
      xenstore_write = 1200L;
      netsim_cmd = 4000L;
      vmi_scan_frame = 150L;
      kvm_ioctl = 900L;
      vm_entry = 650L;
      grant_map = 260L;
      evtchn_send = 110L;
      dm_io = 1500L;
    }

  let to_assoc m =
    [
      ("hypercall_dispatch", m.hypercall_dispatch);
      ("page_walk_step", m.page_walk_step);
      ("tlb_hit", m.tlb_hit);
      ("tlb_miss", m.tlb_miss);
      ("pte_install", m.pte_install);
      ("fault_delivery", m.fault_delivery);
      ("guest_mem_op", m.guest_mem_op);
      ("xenstore_write", m.xenstore_write);
      ("netsim_cmd", m.netsim_cmd);
      ("vmi_scan_frame", m.vmi_scan_frame);
      ("kvm_ioctl", m.kvm_ioctl);
      ("vm_entry", m.vm_entry);
      ("grant_map", m.grant_map);
      ("evtchn_send", m.evtchn_send);
      ("dm_io", m.dm_io);
    ]

  let to_string m =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s = %Ld\n" k v) (to_assoc m))

  let with_key m k v =
    match k with
    | "hypercall_dispatch" -> Some { m with hypercall_dispatch = v }
    | "page_walk_step" -> Some { m with page_walk_step = v }
    | "tlb_hit" -> Some { m with tlb_hit = v }
    | "tlb_miss" -> Some { m with tlb_miss = v }
    | "pte_install" -> Some { m with pte_install = v }
    | "fault_delivery" -> Some { m with fault_delivery = v }
    | "guest_mem_op" -> Some { m with guest_mem_op = v }
    | "xenstore_write" -> Some { m with xenstore_write = v }
    | "netsim_cmd" -> Some { m with netsim_cmd = v }
    | "vmi_scan_frame" -> Some { m with vmi_scan_frame = v }
    | "kvm_ioctl" -> Some { m with kvm_ioctl = v }
    | "vm_entry" -> Some { m with vm_entry = v }
    | "grant_map" -> Some { m with grant_map = v }
    | "evtchn_send" -> Some { m with evtchn_send = v }
    | "dm_io" -> Some { m with dm_io = v }
    | _ -> None

  let of_string ?(base = default) src =
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
    go base 1 (String.split_on_char '\n' src)

  let load ?base path =
    match In_channel.with_open_text path In_channel.input_all with
    | src -> of_string ?base src
    | exception Sys_error msg -> Error msg
end

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

let op_name = function
  | Hypercall_dispatch -> "hypercall_dispatch"
  | Page_walk_step -> "page_walk_step"
  | Tlb_hit -> "tlb_hit"
  | Tlb_miss -> "tlb_miss"
  | Pte_install -> "pte_install"
  | Fault_delivery -> "fault_delivery"
  | Guest_mem_op -> "guest_mem_op"
  | Xenstore_write -> "xenstore_write"
  | Netsim_cmd -> "netsim_cmd"
  | Vmi_scan_frame -> "vmi_scan_frame"
  | Kvm_ioctl -> "kvm_ioctl"
  | Vm_entry -> "vm_entry"
  | Grant_map -> "grant_map"
  | Evtchn_send -> "evtchn_send"
  | Dm_io -> "dm_io"

let cost (m : Cost_model.t) = function
  | Hypercall_dispatch -> m.Cost_model.hypercall_dispatch
  | Page_walk_step -> m.Cost_model.page_walk_step
  | Tlb_hit -> m.Cost_model.tlb_hit
  | Tlb_miss -> m.Cost_model.tlb_miss
  | Pte_install -> m.Cost_model.pte_install
  | Fault_delivery -> m.Cost_model.fault_delivery
  | Guest_mem_op -> m.Cost_model.guest_mem_op
  | Xenstore_write -> m.Cost_model.xenstore_write
  | Netsim_cmd -> m.Cost_model.netsim_cmd
  | Vmi_scan_frame -> m.Cost_model.vmi_scan_frame
  | Kvm_ioctl -> m.Cost_model.kvm_ioctl
  | Vm_entry -> m.Cost_model.vm_entry
  | Grant_map -> m.Cost_model.grant_map
  | Evtchn_send -> m.Cost_model.evtchn_send
  | Dm_io -> m.Cost_model.dm_io

(* [now] is an unboxed int of ns, so a charge allocates nothing; the
   API stays int64. *)
type t = { mutable now : int; mutable model : Cost_model.t; mutable attached : bool }

let create ?(model = Cost_model.default) () = { now = 0; model; attached = true }
let now t = Int64.of_int t.now
let set t ns = t.now <- Int64.to_int ns
let attached t = t.attached
let set_attached t on = t.attached <- on
let model t = t.model
let set_model t m = t.model <- m
let charge t op = if t.attached then t.now <- t.now + Int64.to_int (cost t.model op)

let charge_n t op n =
  if t.attached && n > 0 then t.now <- t.now + (n * Int64.to_int (cost t.model op))
