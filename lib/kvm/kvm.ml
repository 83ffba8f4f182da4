type vm_state = Vm_running | Vm_crashed of string

type vm = {
  vm_id : int;
  vm_name : string;
  ept_root : Addr.mfn;
  vmcs_mfn : Addr.mfn;
  guest_pages : int;
  guest_cr3_gpa : Nested.gpa;
  idt_gpa : Nested.gpa;
  mutable state : vm_state;
}

type t = { kvm_mem : Phys_mem.t; mutable vm_list : vm list; kvm_console : Buffer.t; mutable next_id : int }

let boot ~frames =
  { kvm_mem = Phys_mem.create ~frames; vm_list = []; kvm_console = Buffer.create 256; next_id = 1 }

let mem t = t.kvm_mem
let vms t = t.vm_list

let log t line =
  Buffer.add_string t.kvm_console "(KVM) ";
  Buffer.add_string t.kvm_console line;
  Buffer.add_char t.kvm_console '\n'

let console t = String.split_on_char '\n' (Buffer.contents t.kvm_console)

let vmcs_magic = 0x564D_4353_2D4F_4B21L (* "VMCS-OK!" *)
let vmcs_entry_handler = 0xFFFF_F000_0BAD_CAFEL
let guest_handler_base = 0xFFFF_8800_000F_0000L
let guest_handler vec = Int64.add guest_handler_base (Int64.of_int (vec * 32))
let idt_gpfn = 2

(* Resolve a guest-physical address on behalf of the host (KVM reads
   guest memory through the EPT like hardware would). *)
let gpa_to_maddr t vm gpa = Nested.ept_translate t.kvm_mem ~ept_root:vm.ept_root gpa

let gpa_frame_exn t vm gpfn =
  match gpa_to_maddr t vm (Addr.maddr_of_mfn gpfn) with
  | Ok ma -> Phys_mem.frame t.kvm_mem (Addr.mfn_of_maddr ma)
  | Error _ -> failwith "Kvm: unmapped guest-physical page"

let create_vm t ~name ~pages =
  if pages < 8 || pages > 512 then invalid_arg "Kvm.create_vm: pages out of range";
  let alloc () = Phys_mem.alloc t.kvm_mem Phys_mem.Xen in
  let ept_root = alloc () in
  (* guest-physical pages 0..pages-1 *)
  for gpfn = 0 to pages - 1 do
    let mfn = Phys_mem.alloc t.kvm_mem (Phys_mem.Dom t.next_id) in
    Nested.map_gpa t.kvm_mem ~alloc ~ept_root (Addr.maddr_of_mfn gpfn) mfn
  done;
  let vmcs_mfn = alloc () in
  (* the guest constructs its own address space in guest memory: table
     pages at the top of the guest-physical space, kernel map of every
     gpfn. Entries hold guest-physical frame numbers. *)
  let l1_count = (pages + Addr.entries_per_table - 1) / Addr.entries_per_table in
  let l4_gpfn = pages - 1 in
  let l3_gpfn = pages - 2 in
  let l2_gpfn = pages - 3 in
  let l1_gpfn j = pages - 4 - j in
  let vm =
    {
      vm_id = t.next_id;
      vm_name = name;
      ept_root;
      vmcs_mfn;
      guest_pages = pages;
      guest_cr3_gpa = Addr.maddr_of_mfn l4_gpfn;
      idt_gpa = Addr.maddr_of_mfn idt_gpfn;
      state = Vm_running;
    }
  in
  t.next_id <- t.next_id + 1;
  let inter gpfn = Pte.make ~mfn:gpfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ] in
  let l4f = gpa_frame_exn t vm (Addr.mfn_of_maddr vm.guest_cr3_gpa) in
  Frame.set_entry l4f (Addr.l4_index Layout.guest_kernel_base) (inter l3_gpfn);
  Frame.set_entry (gpa_frame_exn t vm l3_gpfn) 0 (inter l2_gpfn);
  for j = 0 to l1_count - 1 do
    Frame.set_entry (gpa_frame_exn t vm l2_gpfn) j (inter (l1_gpfn j))
  done;
  for gpfn = 0 to pages - 1 do
    let j = gpfn / Addr.entries_per_table and i = gpfn mod Addr.entries_per_table in
    Frame.set_entry (gpa_frame_exn t vm (l1_gpfn j)) i (inter gpfn)
  done;
  (* the guest's own IDT *)
  let idt_frame = gpa_frame_exn t vm idt_gpfn in
  Frame.fill idt_frame '\000';
  for vec = 0 to 32 do
    Frame.set_u64 idt_frame (Idt.handler_offset vec) (guest_handler vec);
    Frame.set_u64 idt_frame (Idt.handler_offset vec + 8) 0x8000L
  done;
  (* the host-side VMCS *)
  let vmcs = Phys_mem.frame t.kvm_mem vmcs_mfn in
  Frame.set_u64 vmcs 0 vmcs_magic;
  Frame.set_u64 vmcs 8 vmcs_entry_handler;
  Frame.set_u64 vmcs 16 vm.guest_cr3_gpa;
  t.vm_list <- t.vm_list @ [ vm ];
  log t (Printf.sprintf "vm%d (%s): %d guest pages, EPT root mfn 0x%x" vm.vm_id name pages ept_root);
  vm

let crash_reason vm = match vm.state with Vm_running -> None | Vm_crashed why -> Some why

let vm_entry t vm =
  match vm.state with
  | Vm_crashed _ -> Error Errno.EINVAL
  | Vm_running ->
      Phys_mem.observe t.kvm_mem ~consumer:Provenance.Vmcs_check ~mfn:vm.vmcs_mfn ~off:0
        ~len:16;
      (* a read-only check: entering the VM must not dirty its VMCS *)
      let vmcs = Phys_mem.frame_ro t.kvm_mem vm.vmcs_mfn in
      if Frame.get_u64 vmcs 0 <> vmcs_magic || Frame.get_u64 vmcs 8 <> vmcs_entry_handler then begin
        let why = "KVM: VM-entry failed (invalid guest state)" in
        vm.state <- Vm_crashed why;
        log t (Printf.sprintf "vm%d: %s -- VM killed, host continues" vm.vm_id why);
        Error Errno.EINVAL
      end
      else Ok ()

let deliver_guest_fault t vm ~vector =
  match vm.state with
  | Vm_crashed _ -> Error Errno.EFAULT
  | Vm_running -> (
      match gpa_to_maddr t vm vm.idt_gpa with
      | Error _ ->
          vm.state <- Vm_crashed "guest IDT unmapped";
          Error Errno.EFAULT
      | Ok idt_ma ->
          Phys_mem.observe t.kvm_mem ~consumer:Provenance.Idt_gate
            ~mfn:(Addr.mfn_of_maddr idt_ma) ~off:(Idt.handler_offset vector) ~len:8;
          let frame = Phys_mem.frame_ro t.kvm_mem (Addr.mfn_of_maddr idt_ma) in
          let handler = Frame.get_u64 frame (Idt.handler_offset vector) in
          if handler = guest_handler vector then Ok ()
          else begin
            let why =
              Printf.sprintf "guest kernel panic: corrupted gate %d (handler %016Lx)" vector handler
            in
            vm.state <- Vm_crashed why;
            log t (Printf.sprintf "vm%d: %s -- VM killed, host continues" vm.vm_id why);
            Error Errno.EFAULT
          end)

let guest_read_u64 t vm va =
  match
    Nested.translate t.kvm_mem ~ept_root:vm.ept_root ~guest_cr3_gpa:vm.guest_cr3_gpa ~write:false va
  with
  | Ok ma -> Ok (Phys_mem.read_u64 t.kvm_mem ma)
  | Error f -> Error f

let guest_write_u64 t vm va v =
  match
    Nested.translate t.kvm_mem ~ept_root:vm.ept_root ~guest_cr3_gpa:vm.guest_cr3_gpa ~write:true va
  with
  | Ok ma ->
      Phys_mem.write_u64 t.kvm_mem ma v;
      Ok ()
  | Error f -> Error f

(* --- checkpoint / restore ---------------------------------------------- *)

(* The O(dirty) testbed-reset primitive, mirroring [Hv.checkpoint]: the
   memory baseline plus the host-side bookkeeping a trial can mutate.
   The [vm] records themselves survive across resets (scripts hold on
   to them); only their mutable [state] is rolled back. *)
type checkpoint = {
  ck_vms : vm list;
  ck_states : (vm * vm_state) list;
  ck_next_id : int;
  ck_console : string;
}

let checkpoint t =
  Phys_mem.capture_baseline t.kvm_mem;
  {
    ck_vms = t.vm_list;
    ck_states = List.map (fun vm -> (vm, vm.state)) t.vm_list;
    ck_next_id = t.next_id;
    ck_console = Buffer.contents t.kvm_console;
  }

let restore t ck =
  let restored = Phys_mem.reset_to_baseline t.kvm_mem in
  List.iter (fun (vm, st) -> vm.state <- st) ck.ck_states;
  t.vm_list <- ck.ck_vms;
  t.next_id <- ck.ck_next_id;
  Buffer.clear t.kvm_console;
  Buffer.add_string t.kvm_console ck.ck_console;
  restored

(* A new host forked from a frozen template: memory is a
   {!Phys_mem.fork}, and the [vm] records are fresh copies (restore
   mutates [vm.state] in place, so sharing them across forks would let
   one fork's reset clobber another's guests). Returns the fork together
   with its own checkpoint, which references the fork's records — the
   template's checkpoint must keep pointing at the template's. *)
let fork template tck =
  let kvm_mem = Phys_mem.fork (mem template) in
  let vms = List.map (fun (vm, st) -> { vm with state = st }) tck.ck_states in
  let kvm_console = Buffer.create 256 in
  Buffer.add_string kvm_console tck.ck_console;
  let t = { kvm_mem; vm_list = vms; kvm_console; next_id = tck.ck_next_id } in
  let ck =
    {
      ck_vms = vms;
      ck_states = List.map (fun vm -> (vm, vm.state)) vms;
      ck_next_id = tck.ck_next_id;
      ck_console = tck.ck_console;
    }
  in
  (t, ck)

(* --- the ioctl-style injector ------------------------------------------ *)

type action = Access.action =
  | Arbitrary_read_linear
  | Arbitrary_write_linear
  | Arbitrary_read_physical
  | Arbitrary_write_physical

let arbitrary_access t ~addr action ~data =
  let len = Bytes.length data in
  match Access.resolve t.kvm_mem ~addr ~len ~physical:(Access.is_physical action) with
  | None -> Error Errno.EINVAL
  | Some ma ->
      if Access.is_write action then begin
        Phys_mem.write_bytes t.kvm_mem ma data;
        Ok None
      end
      else Ok (Some (Phys_mem.read_bytes t.kvm_mem ma len))

(* --- VMI views (out-of-band, read-only) -------------------------------- *)

let vmcs_hash t vm =
  Phys_mem.observe t.kvm_mem ~consumer:Provenance.Vmcs_check ~mfn:vm.vmcs_mfn ~off:0
    ~len:Addr.page_size;
  Phys_mem.frame_hash t.kvm_mem vm.vmcs_mfn

(* The EPT graph rebuilt from raw table bytes, exactly as hardware
   would walk it — the KVM analogue of [Vmi.View.pt_graph]. *)
type ept_graph = {
  eg_tables : Addr.mfn list;  (** table frames, root first *)
  eg_leaves : (Nested.gpa * Addr.mfn) list;
      (** (guest-physical address, host frame) per mapped guest page *)
  eg_frames_read : int;
}

let level_shift = function 4 -> 39 | 3 -> 30 | 2 -> 21 | _ -> 12

let ept_graph t vm =
  let tables = ref [] and leaves = ref [] and read = ref 0 in
  let rec walk level mfn gpa =
    tables := mfn :: !tables;
    incr read;
    Phys_mem.observe t.kvm_mem ~consumer:Provenance.Ept_walk ~mfn ~off:0 ~len:Addr.page_size;
    Frame.iter_present (Phys_mem.frame_ro t.kvm_mem mfn) (fun i e ->
        let gpa' = Int64.logor gpa (Int64.shift_left (Int64.of_int i) (level_shift level)) in
        let target = Pte.mfn e in
        if level = 1 then begin
          if Phys_mem.is_valid_mfn t.kvm_mem target then leaves := (gpa', target) :: !leaves
        end
        else if Phys_mem.is_valid_mfn t.kvm_mem target then walk (level - 1) target gpa')
  in
  walk 4 vm.ept_root 0L;
  { eg_tables = List.rev !tables; eg_leaves = List.rev !leaves; eg_frames_read = !read }

let ept_exposure ?note t vm =
  let g = ept_graph t vm in
  (match note with
  | Some f ->
      List.iter f g.eg_tables;
      List.iter (fun (_, mfn) -> f mfn) g.eg_leaves
  | None -> ());
  List.length
    (List.filter
       (fun (_, mfn) ->
         match Phys_mem.owner t.kvm_mem mfn with
         | Phys_mem.Xen -> true (* host-owned: EPT tables, VMCSs, KVM itself *)
         | Phys_mem.Dom id -> id <> vm.vm_id (* another VM's memory *)
         | Phys_mem.Free -> false)
       g.eg_leaves)

let guest_idt_gate t vm ~vector =
  match gpa_to_maddr t vm vm.idt_gpa with
  | Error _ -> None
  | Ok ma ->
      Phys_mem.observe t.kvm_mem ~consumer:Provenance.Idt_gate ~mfn:(Addr.mfn_of_maddr ma)
        ~off:(Idt.handler_offset vector) ~len:8;
      let frame = Phys_mem.frame_ro t.kvm_mem (Addr.mfn_of_maddr ma) in
      Some (Frame.get_u64 frame (Idt.handler_offset vector))
