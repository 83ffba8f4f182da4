module Ring = struct
  let req_prod_off = 0
  let rsp_prod_off = 8
  let slots = 32
  let base = 64
  let slot_size = 32
  let slot_off i = base + (i mod slots * slot_size)
  let op_read = 0L
  let op_write = 1L
end

let sectors = 64
let sector_size = 512
let sectors_per_frame = Addr.page_size / sector_size
let disk_frames = sectors / sectors_per_frame
let secret = "BACKEND-SECRET: other tenants' cached blocks live here."

type backend = {
  hv : Hv.t;
  backend_dom : Domain.t;
  frames : Addr.mfn array;  (** [0..disk_frames-1] disk, [disk_frames] the adjacent secret *)
  off_by_one : bool;
}

let secret_frame be = be.frames.(disk_frames)

let create_backend hv ~backend_dom ~off_by_one =
  let frames = Array.init (disk_frames + 1) (fun _ -> Hv.alloc_xen_page hv) in
  let be = { hv; backend_dom; frames; off_by_one } in
  for s = 0 to sectors - 1 do
    let frame = Phys_mem.frame hv.Hv.mem frames.(s / sectors_per_frame) in
    let off = s mod sectors_per_frame * sector_size in
    Frame.write_string frame off (Printf.sprintf "SECTOR%02d" s)
  done;
  Frame.write_string (Phys_mem.frame hv.Hv.mem (secret_frame be)) 0 secret;
  be

(* One-past-the-end sectors land in the adjacent frame — the memory
   shape the off-by-one discloses. *)
let sector_addr be s =
  Int64.add
    (Addr.maddr_of_mfn be.frames.(s / sectors_per_frame))
    (Int64.of_int (s mod sectors_per_frame * sector_size))

let sector_valid be s = if be.off_by_one then s >= 0 && s <= sectors else s >= 0 && s < sectors

type frontend = {
  k : Kernel.t;
  backend_domid : int;
  ring_va : Addr.vaddr;
  data_va : Addr.vaddr;
  ring_mfn : Addr.mfn;
  data_mfn : Addr.mfn;
  ring_gref : int;
  data_gref : int;
}

let grant_frame_pfn = 44
let ring_gref = 20
let data_gref = 21

let connect k ~backend_domid ~ring_pfn ~data_pfn =
  let dom = Kernel.dom k in
  let rc call = Kernel.hypercall_rc k call in
  let setup () =
    if Grant_table.memory_backed dom.Domain.grant then 0
    else begin
      let grant_mfn = rc (Hypercall.Grant_table_op (Hypercall.Gnttab_setup_table { nr_frames = 1 })) in
      if grant_mfn < 0 then grant_mfn
      else
        rc
          (Hypercall.Update_va_mapping
             {
               va = Domain.kernel_vaddr_of_pfn grant_frame_pfn;
               value = Pte.make ~mfn:grant_mfn ~flags:[ Pte.Present; Pte.Rw; Pte.User ];
             })
    end
  in
  if setup () < 0 then Error Errno.ENOMEM
  else
    let grant_va = Domain.kernel_vaddr_of_pfn grant_frame_pfn in
    let wire gref pfn =
      let word =
        Int64.logor
          (Int64.of_int Grant_table.Wire.gtf_permit_access)
          (Int64.logor
             (Int64.shift_left (Int64.of_int backend_domid) 16)
             (Int64.shift_left (Int64.of_int pfn) 32))
      in
      Kernel.write_u64 k (Int64.add grant_va (Int64.of_int (8 * gref))) word
    in
    match (wire ring_gref ring_pfn, wire data_gref data_pfn) with
    | Ok (), Ok () ->
        let ring_va = Domain.kernel_vaddr_of_pfn ring_pfn in
        (* initialize producer/consumer indices *)
        (match
           ( Kernel.write_u64 k (Int64.add ring_va (Int64.of_int Ring.req_prod_off)) 0L,
             Kernel.write_u64 k (Int64.add ring_va (Int64.of_int Ring.rsp_prod_off)) 0L )
         with
        | Ok (), Ok () ->
            Ok
              {
                k;
                backend_domid;
                ring_va;
                data_va = Domain.kernel_vaddr_of_pfn data_pfn;
                ring_mfn = Option.get (Domain.mfn_of_pfn dom ring_pfn);
                data_mfn = Option.get (Domain.mfn_of_pfn dom data_pfn);
                ring_gref;
                data_gref;
              }
        | _ -> Error Errno.EFAULT)
    | _ -> Error Errno.EFAULT

let ring_word fe off = Kernel.read_u64 fe.k (Int64.add fe.ring_va (Int64.of_int off))
let ring_set fe off v = Kernel.write_u64 fe.k (Int64.add fe.ring_va (Int64.of_int off)) v

let submit fe ~op ~sector =
  match ring_word fe Ring.req_prod_off with
  | Error _ -> Error Errno.EFAULT
  | Ok prod ->
      let id = Int64.to_int prod in
      let off = Ring.slot_off id in
      let put rel v =
        match ring_set fe (off + rel) v with Ok () -> () | Error _ -> ()
      in
      put 0 prod;
      put 8 op;
      put 16 (Int64.of_int sector);
      put 24 (-1L);
      (match ring_set fe Ring.req_prod_off (Int64.add prod 1L) with
      | Ok () -> Ok id
      | Error _ -> Error Errno.EFAULT)

(* The backend side: map the grants (taking real maptrack references),
   then work directly on the granted frames — a driver domain's view. *)
let backend_poll be fe =
  let hv = be.hv in
  let granter = (Kernel.dom fe.k).Domain.id in
  let grant_map gref =
    Hypercall.dispatch hv be.backend_dom
      (Hypercall.Grant_table_op (Hypercall.Gnttab_map { granter; gref }))
  in
  let unmap handle =
    ignore
      (Hypercall.dispatch hv be.backend_dom
         (Hypercall.Grant_table_op (Hypercall.Gnttab_unmap { granter; handle })))
  in
  (* map both grants; abort politely if the frontend lied *)
  match (grant_map fe.ring_gref, grant_map fe.data_gref) with
  | Ok ring_handle, Ok data_handle ->
      let ring = Phys_mem.frame hv.Hv.mem fe.ring_mfn in
      let data_ma = Addr.maddr_of_mfn fe.data_mfn in
      let req_prod = Int64.to_int (Frame.get_u64 ring Ring.req_prod_off) in
      let rsp_prod = Int64.to_int (Frame.get_u64 ring Ring.rsp_prod_off) in
      let completed = ref 0 in
      for id = rsp_prod to req_prod - 1 do
        let off = Ring.slot_off id in
        let op = Frame.get_u64 ring (off + 8) in
        let sector = Int64.to_int (Frame.get_u64 ring (off + 16)) in
        let status =
          if not (sector_valid be sector) then Int64.of_int (Errno.to_return_code Errno.EINVAL)
          else begin
            let disk = sector_addr be sector in
            if op = Ring.op_read then
              Phys_mem.write_bytes hv.Hv.mem data_ma (Phys_mem.read_bytes hv.Hv.mem disk sector_size)
            else if op = Ring.op_write then
              Phys_mem.write_bytes hv.Hv.mem disk (Phys_mem.read_bytes hv.Hv.mem data_ma sector_size)
            else ();
            if op = Ring.op_read || op = Ring.op_write then 0L
            else Int64.of_int (Errno.to_return_code Errno.ENOSYS)
          end
        in
        Frame.set_u64 ring (off + 24) status;
        incr completed
      done;
      Frame.set_u64 ring Ring.rsp_prod_off (Int64.of_int req_prod);
      unmap (Int64.to_int ring_handle);
      unmap (Int64.to_int data_handle);
      !completed
  | Ok h, Error _ | Error _, Ok h ->
      unmap (Int64.to_int h);
      0
  | Error _, Error _ -> 0

let response_status fe id =
  match (ring_word fe Ring.rsp_prod_off, ring_word fe (Ring.slot_off id + 24)) with
  | Ok rsp, Ok status when Int64.to_int rsp > id -> Some status
  | _ -> None

let read_data fe ~off ~len = Kernel.read_bytes fe.k (Int64.add fe.data_va (Int64.of_int off)) len
let write_data fe ~off data = Kernel.write_bytes fe.k (Int64.add fe.data_va (Int64.of_int off)) data
