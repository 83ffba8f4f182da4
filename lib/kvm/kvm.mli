(** A minimal KVM-style hardware-assisted hypervisor — the "hypervisor
    B" of §IX-A's cross-system scenario.

    The architecture differs from the Xen PV substrate on purpose:
    - guests own their page tables outright (no hypervisor validation
      of guest entries — isolation comes from the EPT instead);
    - the guest's IDT lives in {e guest} memory, so corrupting it harms
      only that guest;
    - the host-critical control structure is the per-VM VMCS, held in
      host memory: corrupting it makes the next VM entry fail and KVM
      kills the VM — the host survives.

    The same intrusion model ("corrupt a descriptor-table handler")
    therefore has a different blast radius here than on Xen, which is
    exactly the kind of finding cross-system injection exists to
    surface. The injector is an ioctl-style host interface
    ({!arbitrary_access}) with the same four actions as the Xen
    prototype, so test scripts port across systems. *)

type vm_state = Vm_running | Vm_crashed of string

type vm = {
  vm_id : int;
  vm_name : string;
  ept_root : Addr.mfn;
  vmcs_mfn : Addr.mfn;  (** host-owned control structure *)
  guest_pages : int;
  guest_cr3_gpa : Nested.gpa;
  idt_gpa : Nested.gpa;  (** the guest's own IDT, in guest memory *)
  mutable state : vm_state;
}

type t

val boot : frames:int -> t
val mem : t -> Phys_mem.t
val console : t -> string list
val vms : t -> vm list

val create_vm : t -> name:string -> pages:int -> vm
(** Guest-physical pages 0..pages-1 mapped through a fresh EPT; a
    kernel-style guest address space built {e by the guest} in its own
    memory; a guest IDT at a fixed guest-physical page; a VMCS in host
    memory. *)

val vmcs_magic : int64
val vmcs_entry_handler : int64
(** The legitimate VMCS fields [vm_entry] checks. *)

val guest_handler : int -> int64
(** The legitimate guest IDT handler for a vector — what
    {!deliver_guest_fault} expects to find in the gate. *)

val vm_entry : t -> vm -> (unit, Errno.t) result
(** Run the VM for a slice: validates the VMCS first; corruption fails
    the entry with [EINVAL] and kills the VM ("KVM: VM-entry failed" —
    the narrative reason lands in {!crash_reason} and the console). *)

val deliver_guest_fault : t -> vm -> vector:int -> (unit, Errno.t) result
(** Deliver an exception through the {e guest's} IDT: a corrupted gate
    panics the guest kernel (the VM), never the host. Fails with
    [EFAULT] when the VM is (or ends up) dead. *)

val crash_reason : vm -> string option
(** Why the VM died, when it has. *)

val guest_read_u64 : t -> vm -> Addr.vaddr -> (int64, Nested.fault) result
val guest_write_u64 : t -> vm -> Addr.vaddr -> int64 -> (unit, Nested.fault) result
(** Guest accesses through the full two-dimensional walk. *)

val gpa_to_maddr : t -> vm -> Nested.gpa -> (Addr.maddr, Nested.fault) result

(** {1 Checkpoint / reset} *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture the current state as the reset baseline: memory as a
    frozen template the live memory is forked from in place
    ({!Phys_mem.capture_baseline}), plus VM states, the VM list and the
    console. *)

val restore : t -> checkpoint -> int
(** Roll back to the checkpoint in O(frames dirtied); returns the
    number of frames restored. *)

val fork : t -> checkpoint -> t * checkpoint
(** [fork template ck] is a new host in state [ck], its memory shared
    copy-on-write with the template's (which must be
    {!Phys_mem.freeze}d), plus the fork's own reset checkpoint (the VM
    records are fresh copies — resets on one fork never touch another).
    The template checkpoint is only read; it can seed any number of
    forks concurrently. *)

(** {1 The KVM injector (ioctl-style)} *)

type action = Access.action =
  | Arbitrary_read_linear
  | Arbitrary_write_linear
  | Arbitrary_read_physical
  | Arbitrary_write_physical
(** Equal to {!Access.action}: the same four-action surface (and wire
    codes) as the Xen hypercall prototype. *)

val arbitrary_access :
  t -> addr:int64 -> action -> data:bytes -> (bytes option, Errno.t) result
(** The host-side injector: same action surface as the Xen hypercall
    prototype ([linear] resolves through the host direct map). Write
    actions consume [data]; read actions return bytes of
    [Bytes.length data]. *)

(** {1 VMI views (out-of-band, read-only)} *)

val vmcs_hash : t -> vm -> int64
(** FNV-1a of the VM's VMCS frame — the KVM integrity baseline. *)

(** The EPT graph rebuilt from raw table bytes, exactly as hardware
    would walk it — the KVM analogue of {!Vmi.View.pt_graph}. *)
type ept_graph = {
  eg_tables : Addr.mfn list;  (** table frames, root first *)
  eg_leaves : (Nested.gpa * Addr.mfn) list;
      (** (guest-physical address, host frame) per mapped guest page *)
  eg_frames_read : int;  (** table frames visited (the scan cost) *)
}

val ept_graph : t -> vm -> ept_graph

val ept_exposure : ?note:(Addr.mfn -> unit) -> t -> vm -> int
(** How many EPT leaves expose memory the VM must not see: host-owned
    frames (EPT tables, VMCSs) or another VM's pages. Zero on a healthy
    system; rises when an intrusion remaps the EPT. [note] receives
    every frame the count depends on: the EPT table frames and the leaf
    frames, whose owners it reads. *)

val guest_idt_gate : t -> vm -> vector:int -> int64 option
(** The guest's IDT gate handler for [vector], read through the EPT
    without guest cooperation ([None] if the IDT page is unmapped). *)
