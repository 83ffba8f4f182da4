(* The KVM backend's scenario op table. The contrast with the Xen table
   is the gating the paper's §V calls for: no guest-visible hypercalls
   or payloads here — the port is an ioctl and the
   compromised-device-model write ([host-w64]) exists instead — and a
   scenario naming Xen page-table symbols fails the load-time check
   rather than executing nonsense. *)

module B = Backend_kvm

(* The victim's VMCS entry-handler word in host memory. *)
let vmcs_target (t : Backend_kvm.t) =
  Int64.add (Addr.maddr_of_mfn t.Backend_kvm.victim.Kvm.vmcs_mfn) 8L

let ops =
  let open Scn_ops in
  let int = Int64.to_int in
  {
    backend = Scn_bytecode.Kvm_only;
    env =
      [
        op "vmcs-target" (0L, 0L) (fun t _ -> Ok (vmcs_target t));
        op "kvm-idt-gate" (0L, 255L) (fun t vector ->
            let vm = t.Backend_kvm.victim in
            match Kvm.gpa_to_maddr t.Backend_kvm.kvm vm vm.Kvm.idt_gpa with
            | Ok ma -> Ok (Int64.add ma (Int64.of_int (Idt.handler_offset (int vector))))
            | Error _ -> Error "guest IDT unmapped");
        op "victim-vm" (0L, 0L) (fun t _ -> Ok (Int64.of_int t.Backend_kvm.victim.Kvm.vm_id));
      ];
    hypercalls = [];
    guest_ops =
      [
        op "kvm-deliver-fault" 1 (fun t a ->
            ignore (Backend_kvm.deliver_fault t t.Backend_kvm.victim ~vector:(int a.(0)));
            Ok ());
      ];
    payloads = [];
    states =
      [
        op "vmcs-tampered" 1 (fun a -> Backend_kvm.Vmcs_entry_tampered (int a.(0)));
        op "kvm-idt-corrupted" 2 (fun a ->
            Backend_kvm.Guest_idt_gate_corrupted (int a.(0), int a.(1)));
      ];
    host_write =
      Some
        (fun t ~addr v ->
          let b = Bytes.create 8 in
          Bytes.set_int64_le b 0 v;
          Backend_kvm.host_write t ~addr b);
  }
