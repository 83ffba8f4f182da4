(* The KVM backend's scenario capability table and dispatch. The
   contrast with the Xen table is the gating the paper's §V calls for:
   no guest-visible hypercalls here — the port is an ioctl and the
   compromised-device-model write ([host-w64]) exists instead — and a
   scenario naming Xen page-table symbols fails the load-time check
   rather than executing nonsense. *)

module B = Backend_kvm

let caps =
  {
    Scn_check.cap_backend = Scn_bytecode.Kvm_only;
    cap_env = [ ("vmcs-target", (0L, 0L)); ("kvm-idt-gate", (0L, 255L)); ("victim-vm", (0L, 0L)) ];
    cap_hypercalls = [];
    cap_guest_ops = [ ("kvm-deliver-fault", 1) ];
    cap_payloads = [];
    cap_states = [ ("vmcs-tampered", 1); ("kvm-idt-corrupted", 2) ];
    cap_host_write = true;
    cap_actions = Access.all;
  }

(* The victim's VMCS entry-handler word in host memory. *)
let vmcs_target (t : Backend_kvm.t) =
  Int64.add (Addr.maddr_of_mfn t.Backend_kvm.victim.Kvm.vmcs_mfn) 8L

let env (t : Backend_kvm.t) name arg =
  match name with
  | "vmcs-target" -> Ok (vmcs_target t)
  | "kvm-idt-gate" -> (
      let vm = t.Backend_kvm.victim in
      match Kvm.gpa_to_maddr t.Backend_kvm.kvm vm vm.Kvm.idt_gpa with
      | Ok ma -> Ok (Int64.add ma (Int64.of_int (Idt.handler_offset (Int64.to_int arg))))
      | Error _ -> Error "guest IDT unmapped")
  | "victim-vm" -> Ok (Int64.of_int t.Backend_kvm.victim.Kvm.vm_id)
  | _ -> Error "unknown environment symbol"

let hypercall _t name _args =
  Error (Printf.sprintf "no guest hypercall %S on the kvm backend" name)

let guest_op (t : Backend_kvm.t) name args =
  match (name, args) with
  | "kvm-deliver-fault", [| vector |] ->
      ignore (Backend_kvm.deliver_fault t t.Backend_kvm.victim ~vector:(Int64.to_int vector));
      Ok ()
  | _ -> Error (Printf.sprintf "unknown guest op %S" name)

let payload _t ~say:_ name _args = Error (Printf.sprintf "unknown payload %S" name)

let state _t name args =
  match (name, args) with
  | "vmcs-tampered", [| vm |] -> Ok (Backend_kvm.Vmcs_entry_tampered (Int64.to_int vm))
  | "kvm-idt-corrupted", [| vm; vector |] ->
      Ok (Backend_kvm.Guest_idt_gate_corrupted (Int64.to_int vm, Int64.to_int vector))
  | _ -> Error (Printf.sprintf "unknown erroneous state %S" name)

let host_write (t : Backend_kvm.t) ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Backend_kvm.host_write t ~addr b
