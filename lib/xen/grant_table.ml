type gt_version = V1 | V2

type entry = {
  mutable permit : bool;
  mutable grantee : int;
  mutable g_mfn : Addr.mfn;
  mutable readonly : bool;
  mutable in_use : int;
}

type map_record = {
  handle : int;
  mapper : int;
  granter : int;
  gref : int;
  mapped_mfn : Addr.mfn;
  map_readonly : bool;
}

type t = {
  mutable gt_version : gt_version;
  entries : entry array;
  mutable status : Addr.mfn list;
  mutable shared : Addr.mfn list;
  mutable maptrack : (int, map_record) Hashtbl.t;
  mutable next_handle : int;
}

module Wire = struct
  type wire_entry = { w_flags : int; w_domid : int; w_gfn : int }

  let entry_size = 8
  let gtf_permit_access = 1
  let gtf_readonly = 2
  let gtf_in_use = 4

  let read frame gref =
    let off = gref * entry_size in
    let word = Frame.get_u64 frame off in
    {
      w_flags = Int64.to_int (Int64.logand word 0xFFFFL);
      w_domid = Int64.to_int (Int64.logand (Int64.shift_right_logical word 16) 0xFFFFL);
      w_gfn = Int64.to_int (Int64.logand (Int64.shift_right_logical word 32) 0xFFFF_FFFFL);
    }

  let write frame gref { w_flags; w_domid; w_gfn } =
    let off = gref * entry_size in
    let word =
      Int64.logor
        (Int64.of_int (w_flags land 0xFFFF))
        (Int64.logor
           (Int64.shift_left (Int64.of_int (w_domid land 0xFFFF)) 16)
           (Int64.shift_left (Int64.of_int w_gfn) 32))
    in
    Frame.set_u64 frame off word
end

let status_frame_count = 1

let create ~grefs =
  if grefs <= 0 then invalid_arg "Grant_table.create";
  {
    gt_version = V1;
    entries =
      Array.init grefs (fun _ ->
          { permit = false; grantee = -1; g_mfn = -1; readonly = true; in_use = 0 });
    status = [];
    shared = [];
    maptrack = Hashtbl.create 31;
    next_handle = 0;
  }

let version t = t.gt_version
let entry t gref = if gref >= 0 && gref < Array.length t.entries then Some t.entries.(gref) else None
let status_frames t = t.status
let shared_frames t = t.shared
let set_shared t frames = t.shared <- frames
let memory_backed t = t.shared <> []
let any_mapped t = Hashtbl.length t.maptrack > 0

(* Locate the shared frame and in-frame gref for a reference. *)
let wire_slot t gref =
  if gref < 0 then None
  else
    let per_frame = Addr.page_size / Wire.entry_size in
    let frame_index = gref / per_frame in
    match List.nth_opt t.shared frame_index with
    | Some mfn -> Some (mfn, gref mod per_frame)
    | None -> None

let fresh_handle t =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  handle

let map_memory t ~mem ~granter ~mapper ~gref ~gfn_to_mfn =
  match wire_slot t gref with
  | None -> Error Errno.EINVAL
  | Some (frame_mfn, slot) ->
      let frame = Phys_mem.frame mem frame_mfn in
      (* the hypervisor is about to *interpret* these guest-writable
         bytes: record the causal edge so attribution can tie a forged
         wire entry back to whoever wrote it *)
      Phys_mem.observe mem ~consumer:Provenance.Gnt_check ~mfn:frame_mfn
        ~off:(slot * Wire.entry_size) ~len:Wire.entry_size;
      let e = Wire.read frame slot in
      if e.Wire.w_flags land Wire.gtf_permit_access = 0 then Error Errno.ENOENT
      else if e.Wire.w_domid <> mapper then Error Errno.EPERM
      else (
        match gfn_to_mfn e.Wire.w_gfn with
        | None -> Error Errno.EINVAL
        | Some mapped_mfn ->
            Wire.write frame slot { e with Wire.w_flags = e.Wire.w_flags lor Wire.gtf_in_use };
            let handle = fresh_handle t in
            let record =
              {
                handle;
                mapper;
                granter;
                gref;
                mapped_mfn;
                map_readonly = e.Wire.w_flags land Wire.gtf_readonly <> 0;
              }
            in
            Hashtbl.replace t.maptrack handle record;
            Ok record)

let unmap_memory t ~mem ~handle =
  match Hashtbl.find_opt t.maptrack handle with
  | None -> Error Errno.ENOENT
  | Some record ->
      Hashtbl.remove t.maptrack handle;
      (match wire_slot t record.gref with
      | Some (frame_mfn, slot) ->
          let frame = Phys_mem.frame mem frame_mfn in
          let e = Wire.read frame slot in
          Wire.write frame slot
            { e with Wire.w_flags = e.Wire.w_flags land lnot Wire.gtf_in_use }
      | None -> ());
      Ok ()

let set_version t ~alloc ~release v =
  if any_mapped t then Error Errno.EBUSY
  else
    match (t.gt_version, v) with
    | V1, V1 | V2, V2 -> Ok ()
    | V1, V2 ->
        t.status <- List.init status_frame_count (fun _ -> alloc ());
        t.gt_version <- V2;
        Ok ()
    | V2, V1 ->
        (* The correct behaviour XSA-387 violated: status pages go back
           to Xen when leaving v2. *)
        List.iter release t.status;
        t.status <- [];
        t.gt_version <- V1;
        Ok ()

let grant_access t ~gref ~grantee ~mfn ~readonly =
  match entry t gref with
  | None -> Error Errno.EINVAL
  | Some e ->
      if e.in_use > 0 then Error Errno.EBUSY
      else (
        e.permit <- true;
        e.grantee <- grantee;
        e.g_mfn <- mfn;
        e.readonly <- readonly;
        Ok ())

let end_access t ~gref =
  match entry t gref with
  | None -> Error Errno.EINVAL
  | Some e ->
      if e.in_use > 0 then Error Errno.EBUSY
      else (
        e.permit <- false;
        e.grantee <- -1;
        e.g_mfn <- -1;
        Ok ())

let map t ~granter ~mapper ~gref =
  match entry t gref with
  | None -> Error Errno.EINVAL
  | Some e ->
      if not e.permit then Error Errno.ENOENT
      else if e.grantee <> mapper then Error Errno.EPERM
      else begin
        e.in_use <- e.in_use + 1;
        let handle = t.next_handle in
        t.next_handle <- handle + 1;
        let record =
          { handle; mapper; granter; gref; mapped_mfn = e.g_mfn; map_readonly = e.readonly }
        in
        Hashtbl.replace t.maptrack handle record;
        Ok record
      end

let unmap t ~handle =
  match Hashtbl.find_opt t.maptrack handle with
  | None -> Error Errno.ENOENT
  | Some record ->
      Hashtbl.remove t.maptrack handle;
      (match entry t record.gref with
      | Some e when e.in_use > 0 -> e.in_use <- e.in_use - 1
      | Some _ | None -> ());
      Ok ()

let mappings t = Hashtbl.fold (fun _ r acc -> r :: acc) t.maptrack []
let find_mapping t ~handle = Hashtbl.find_opt t.maptrack handle
let active_grants t = Array.fold_left (fun acc e -> if e.permit then acc + 1 else acc) 0 t.entries

(* Structural copy for hypervisor checkpointing: every mutable cell is
   duplicated so the checkpoint is immune to later mutation. *)
let deep_copy t =
  {
    gt_version = t.gt_version;
    entries =
      Array.map
        (fun e ->
          { permit = e.permit; grantee = e.grantee; g_mfn = e.g_mfn; readonly = e.readonly;
            in_use = e.in_use })
        t.entries;
    status = t.status;
    shared = t.shared;
    maptrack = Hashtbl.copy t.maptrack;
    next_handle = t.next_handle;
  }

(* In-place restore from a checkpointed table: the entries are copied
   field by field into the live records. The maptrack is only replaced
   when it can differ from the checkpoint's — every insertion takes a
   fresh handle, so an unchanged [next_handle] with both tables empty
   means the live one was never touched. *)
let restore_into t ~from =
  if Array.length t.entries <> Array.length from.entries then
    invalid_arg "Grant_table.restore_into: table sizes differ";
  t.gt_version <- from.gt_version;
  for i = 0 to Array.length t.entries - 1 do
    let e = t.entries.(i) and s = from.entries.(i) in
    e.permit <- s.permit;
    e.grantee <- s.grantee;
    e.g_mfn <- s.g_mfn;
    e.readonly <- s.readonly;
    e.in_use <- s.in_use
  done;
  t.status <- from.status;
  t.shared <- from.shared;
  if
    t.next_handle <> from.next_handle
    || Hashtbl.length t.maptrack > 0
    || Hashtbl.length from.maptrack > 0
  then t.maptrack <- Hashtbl.copy from.maptrack;
  t.next_handle <- from.next_handle
