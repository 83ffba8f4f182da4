let guest_range_ok _hv va len =
  let last = Int64.add va (Int64.of_int (max 0 (len - 1))) in
  let ok a =
    match Layout.region_of_vaddr a with
    | Layout.Guest_low | Layout.Guest_kernel -> true
    | Layout.M2p | Layout.Linear_pt | Layout.Xen_extra | Layout.Xen_private | Layout.Direct_map ->
        false
  in
  ok va && ok last

let via_guest_tables_write hv dom va data =
  match Cpu.write_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:dom.Domain.l4_mfn va data with
  | Ok () -> Ok ()
  | Error _ -> Error Errno.EFAULT

let via_guest_tables_read hv dom va len =
  match Cpu.read_bytes hv.Hv.cpu ~ring:Cpu.Kernel ~cr3:dom.Domain.l4_mfn va len with
  | Ok b -> Ok b
  | Error _ -> Error Errno.EFAULT

let copy_to_guest hv dom va data =
  if not (guest_range_ok hv va (Bytes.length data)) then Error Errno.EFAULT
  else via_guest_tables_write hv dom va data

let copy_from_guest hv dom va len =
  if not (guest_range_ok hv va len) then Error Errno.EFAULT
  else via_guest_tables_read hv dom va len

(* The XSA-212 defect: no __addr_ok. Xen-linear targets resolve through
   the hypervisor's own direct map — an arbitrary access primitive. *)
let copy_to_guest_unchecked hv dom va data =
  match Layout.maddr_of_directmap va with
  | Some ma ->
      (try
         Phys_mem.write_bytes hv.Hv.mem ma data;
         Ok ()
       with Phys_mem.Bad_maddr _ -> Error Errno.EFAULT)
  | None -> via_guest_tables_write hv dom va data
