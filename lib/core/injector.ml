let hypercall_number = 40
let hypercall_name = "arbitrary_access"

(* The four-action surface and its wire codec live in [Access]
   (lib/machine) so the KVM ioctl port shares them verbatim. *)
type action = Access.action =
  | Arbitrary_read_linear
  | Arbitrary_write_linear
  | Arbitrary_read_physical
  | Arbitrary_write_physical

let action_code = Access.code
let action_of_code = Access.of_code
let scratch_pfn = 2

let resolve_target hv ~addr ~len ~physical =
  match Access.resolve hv.Hv.mem ~addr ~len ~physical with
  | None -> Error Errno.EINVAL
  | Some ma -> Ok ma

let handler hv dom (args : int64 array) =
  if Array.length args <> 4 then Error Errno.EINVAL
  else
    let addr = args.(0) and buf = args.(1) and len = Int64.to_int args.(2) in
    match action_of_code args.(3) with
    | None -> Error Errno.EINVAL
    | Some action -> (
        let tr = hv.Hv.trace in
        Trace.note_injector tr;
        if Trace.recording tr then
          Trace.emit tr
            (Trace.Injector_access { action = Int64.to_int args.(3); addr; len });
        match resolve_target hv ~addr ~len ~physical:(Access.is_physical action) with
        | Error e -> Error e
        | Ok ma -> (
            if Access.is_write action then (
              (* __copy_from_user: fetch the payload from the guest. *)
              match Uaccess.copy_from_guest hv dom buf len with
              | Error e -> Error e
              | Ok data ->
                  (* label the landed bytes with this access's ordinal so
                     attribution can name the injecting action; the counter
                     was just bumped by [note_injector] and is restored
                     with machine checkpoints, so the id is replay-stable *)
                  let n = Trace.injector_accesses tr in
                  Phys_mem.with_origin hv.Hv.mem (Provenance.Injector_action n) (fun () ->
                      Phys_mem.write_bytes hv.Hv.mem ma data);
                  Ok 0L)
            else (
              let data = Phys_mem.read_bytes hv.Hv.mem ma len in
              match Uaccess.copy_to_guest hv dom buf data with
              | Error e -> Error e
              | Ok () -> Ok 0L)))

let installed hv = Hv.lookup_hypercall hv hypercall_number <> None

(* The line [install] logs, formatted once per version: a campaign
   installs the injector again after every trial's reset. *)
let install_line =
  let line v =
    Printf.sprintf "intrusion-injector: hypercall %d (%s) added to the %s call table"
      hypercall_number hypercall_name (Version.to_string v)
  in
  let v46 = line Version.V4_6 and v48 = line Version.V4_8 and v413 = line Version.V4_13 in
  function Version.V4_6 -> v46 | V4_8 -> v48 | V4_13 -> v413

let install hv =
  if not (installed hv) then begin
    Hv.register_hypercall hv ~number:hypercall_number ~name:hypercall_name handler;
    Hv.log hv (install_line hv.Hv.version)
  end

(* --- guest-side wrappers ---------------------------------------------- *)

let scratch_va = Domain.kernel_vaddr_of_pfn scratch_pfn

let raw_call k ~addr ~buf ~len ~action =
  Kernel.hypercall k
    (Hypercall.Raw { number = hypercall_number; args = [| addr; buf; Int64.of_int len; action_code action |] })

let write k ~addr ~action data =
  match Kernel.write_bytes k scratch_va data with
  | Error _ -> Error Errno.EFAULT
  | Ok () -> (
      match raw_call k ~addr ~buf:scratch_va ~len:(Bytes.length data) ~action with
      | Ok _ -> Ok ()
      | Error e -> Error e)

let write_u64 k ~addr ~action v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write k ~addr ~action b

let read k ~addr ~action ~len =
  match raw_call k ~addr ~buf:scratch_va ~len ~action with
  | Error e -> Error e
  | Ok _ -> (
      match Kernel.read_bytes k scratch_va len with
      | Ok b -> Ok b
      | Error _ -> Error Errno.EFAULT)

let read_u64 k ~addr ~action =
  match read k ~addr ~action ~len:8 with
  | Ok b -> Ok (Bytes.get_int64_le b 0)
  | Error e -> Error e
