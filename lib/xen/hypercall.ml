type grant_op =
  | Gnttab_setup_table of { nr_frames : int }
  | Gnttab_set_version of Grant_table.gt_version
  | Gnttab_grant_access of { gref : int; grantee : int; pfn : Addr.pfn; readonly : bool }
  | Gnttab_end_access of { gref : int }
  | Gnttab_map of { granter : int; gref : int }
  | Gnttab_unmap of { granter : int; handle : int }

type evtchn_op =
  | Evtchn_alloc_unbound of { allowed_remote : int }
  | Evtchn_bind_interdomain of { remote_dom : int; remote_port : int }
  | Evtchn_bind_virq of { virq : int }
  | Evtchn_send of { port : int }
  | Evtchn_close of { port : int }

type call =
  | Mmu_update of (int64 * Pte.t) list
  | Update_va_mapping of { va : Addr.vaddr; value : Pte.t }
  | Memory_exchange of Memory_exchange.request
  | Decrease_reservation of Addr.pfn list
  | Grant_table_op of grant_op
  | Event_channel_op of evtchn_op
  | Console_io of string
  | Raw of { number : int; args : int64 array }

let number_of_call = function
  | Mmu_update _ -> 1
  | Update_va_mapping _ -> 3
  | Memory_exchange _ | Decrease_reservation _ -> 12
  | Console_io _ -> 18
  | Grant_table_op _ -> 20
  | Event_channel_op _ -> 32
  | Raw { number; _ } -> number

(* --- binary serialization (trace payloads) --------------------------- *)

(* A recorded hypercall carries its full argument structure, so a
   replay driver can re-issue the exact same call against a fresh
   testbed. The encoding is written and read with the trace ring's own
   wire codec; tag 1 is unassigned. *)

let encode_grant_op b op =
  let open Trace in
  match op with
  | Gnttab_setup_table { nr_frames } -> put_u8 b 0; put_u32 b nr_frames
  | Gnttab_set_version v -> put_u8 b 1; put_u8 b (match v with Grant_table.V1 -> 1 | V2 -> 2)
  | Gnttab_grant_access { gref; grantee; pfn; readonly } ->
      put_u8 b 2; put_u32 b gref; put_u32 b grantee; put_u32 b pfn;
      put_u8 b (if readonly then 1 else 0)
  | Gnttab_end_access { gref } -> put_u8 b 3; put_u32 b gref
  | Gnttab_map { granter; gref } -> put_u8 b 4; put_u32 b granter; put_u32 b gref
  | Gnttab_unmap { granter; handle } -> put_u8 b 5; put_u32 b granter; put_u32 b handle

let encode_evtchn_op b op =
  let open Trace in
  match op with
  | Evtchn_alloc_unbound { allowed_remote } -> put_u8 b 0; put_u32 b allowed_remote
  | Evtchn_bind_interdomain { remote_dom; remote_port } ->
      put_u8 b 1; put_u32 b remote_dom; put_u32 b remote_port
  | Evtchn_bind_virq { virq } -> put_u8 b 2; put_u32 b virq
  | Evtchn_send { port } -> put_u8 b 3; put_u32 b port
  | Evtchn_close { port } -> put_u8 b 4; put_u32 b port

let encode_call call =
  let open Trace in
  let b = Buffer.create 64 in
  (match call with
  | Mmu_update updates ->
      put_u8 b 0;
      put_u32 b (List.length updates);
      List.iter
        (fun (ptr, pte) ->
          put_i64 b ptr;
          put_i64 b pte)
        updates
  | Update_va_mapping { va; value } -> put_u8 b 2; put_i64 b va; put_i64 b value
  | Memory_exchange { Memory_exchange.in_pfns; out_extent_start } ->
      put_u8 b 3;
      put_u32 b (List.length in_pfns);
      List.iter (put_u32 b) in_pfns;
      put_i64 b out_extent_start
  | Decrease_reservation pfns ->
      put_u8 b 4;
      put_u32 b (List.length pfns);
      List.iter (put_u32 b) pfns
  | Grant_table_op op -> put_u8 b 5; encode_grant_op b op
  | Event_channel_op op -> put_u8 b 6; encode_evtchn_op b op
  | Console_io s -> put_u8 b 7; put_str b s
  | Raw { number; args } ->
      put_u8 b 8;
      put_u32 b number;
      put_u32 b (Array.length args);
      Array.iter (put_i64 b) args);
  Buffer.contents b

let decode_grant_op r =
  let open Trace in
  match get_u8 r with
  | 0 -> Some (Gnttab_setup_table { nr_frames = get_u32 r })
  | 1 -> (
      match get_u8 r with
      | 1 -> Some (Gnttab_set_version Grant_table.V1)
      | 2 -> Some (Gnttab_set_version Grant_table.V2)
      | _ -> None)
  | 2 ->
      let gref = get_u32 r in
      let grantee = get_u32 r in
      let pfn = get_u32 r in
      let readonly = get_u8 r = 1 in
      Some (Gnttab_grant_access { gref; grantee; pfn; readonly })
  | 3 -> Some (Gnttab_end_access { gref = get_u32 r })
  | 4 ->
      let granter = get_u32 r in
      let gref = get_u32 r in
      Some (Gnttab_map { granter; gref })
  | 5 ->
      let granter = get_u32 r in
      let handle = get_u32 r in
      Some (Gnttab_unmap { granter; handle })
  | _ -> None

let decode_evtchn_op r =
  let open Trace in
  match get_u8 r with
  | 0 -> Some (Evtchn_alloc_unbound { allowed_remote = get_u32 r })
  | 1 ->
      let remote_dom = get_u32 r in
      let remote_port = get_u32 r in
      Some (Evtchn_bind_interdomain { remote_dom; remote_port })
  | 2 -> Some (Evtchn_bind_virq { virq = get_u32 r })
  | 3 -> Some (Evtchn_send { port = get_u32 r })
  | 4 -> Some (Evtchn_close { port = get_u32 r })
  | _ -> None

(* [List.init]/[Array.init] do not specify evaluation order, so lists
   read off the cursor are built with explicit left-to-right recursion. *)
let read_list n f r =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

let decode_call src =
  let open Trace in
  let r = cursor src in
  try
    match get_u8 r with
    | 0 ->
        let n = get_u32 r in
        if n < 0 then None
        else
          Some
            (Mmu_update
               (read_list n
                  (fun r ->
                    let ptr = get_i64 r in
                    let pte = get_i64 r in
                    (ptr, pte))
                  r))
    | 2 ->
        let va = get_i64 r in
        let value = get_i64 r in
        Some (Update_va_mapping { va; value })
    | 3 ->
        let n = get_u32 r in
        if n < 0 then None
        else
          let in_pfns = read_list n get_u32 r in
          let out_extent_start = get_i64 r in
          Some (Memory_exchange { Memory_exchange.in_pfns; out_extent_start })
    | 4 ->
        let n = get_u32 r in
        if n < 0 then None else Some (Decrease_reservation (read_list n get_u32 r))
    | 5 -> Option.map (fun op -> Grant_table_op op) (decode_grant_op r)
    | 6 -> Option.map (fun op -> Event_channel_op op) (decode_evtchn_op r)
    | 7 -> Some (Console_io (get_str r))
    | 8 ->
        let number = get_u32 r in
        let n = get_u32 r in
        if n < 0 then None else Some (Raw { number; args = Array.of_list (read_list n get_i64 r) })
    | _ -> None
  with Truncated -> None

let grant_op_index = function
  | Gnttab_setup_table _ -> 0
  | Gnttab_set_version _ -> 1
  | Gnttab_grant_access _ -> 2
  | Gnttab_end_access _ -> 3
  | Gnttab_map _ -> 4
  | Gnttab_unmap _ -> 5

let evtchn_op_index = function
  | Evtchn_alloc_unbound _ -> 0
  | Evtchn_bind_interdomain _ -> 1
  | Evtchn_bind_virq _ -> 2
  | Evtchn_send _ -> 3
  | Evtchn_close _ -> 4

let ok0 = Ok 0L
let of_unit = function Ok () -> ok0 | Error e -> Error e
let of_int = function Ok n -> Ok (Int64.of_int n) | Error e -> Error e

let do_grant_op hv dom = function
  | Gnttab_setup_table { nr_frames } ->
      if nr_frames <= 0 || nr_frames > 4 then Error Errno.EINVAL
      else if Grant_table.memory_backed dom.Domain.grant then Error Errno.EBUSY
      else begin
        let frames = List.init nr_frames (fun _ -> Hv.alloc_xen_page hv) in
        Grant_table.set_shared dom.Domain.grant frames;
        (* the guest maps these frames itself (validate_l1 admits a
           domain's own grant frames); return the first mfn like the
           real op returns the frame list *)
        Ok (Int64.of_int (List.hd frames))
      end
  | Gnttab_set_version v ->
      let alloc () = Hv.alloc_xen_page hv in
      let release mfn = match Hv.release_page hv mfn with Ok () | Error _ -> () in
      of_unit (Grant_table.set_version dom.Domain.grant ~alloc ~release v)
  | Gnttab_grant_access { gref; grantee; pfn; readonly } -> (
      match Domain.mfn_of_pfn dom pfn with
      | None -> Error Errno.EINVAL
      | Some mfn -> of_unit (Grant_table.grant_access dom.Domain.grant ~gref ~grantee ~mfn ~readonly))
  | Gnttab_end_access { gref } -> of_unit (Grant_table.end_access dom.Domain.grant ~gref)
  | Gnttab_map { granter; gref } -> (
      Trace.charge hv.Hv.trace Vclock.Grant_map;
      match Hv.find_domain hv granter with
      | None -> Error Errno.EINVAL
      | Some gd ->
          let result =
            if Grant_table.memory_backed gd.Domain.grant then
              Grant_table.map_memory gd.Domain.grant ~mem:hv.Hv.mem ~granter
                ~mapper:dom.Domain.id ~gref
                ~gfn_to_mfn:(fun gfn -> Domain.mfn_of_pfn gd gfn)
            else Grant_table.map gd.Domain.grant ~granter ~mapper:dom.Domain.id ~gref
          in
          (match result with
          | Ok record -> Ok (Int64.of_int record.Grant_table.handle)
          | Error e -> Error e))
  | Gnttab_unmap { granter; handle } -> (
      Trace.charge hv.Hv.trace Vclock.Grant_map;
      match Hv.find_domain hv granter with
      | None -> Error Errno.EINVAL
      | Some gd ->
          if Grant_table.memory_backed gd.Domain.grant then
            of_unit (Grant_table.unmap_memory gd.Domain.grant ~mem:hv.Hv.mem ~handle)
          else of_unit (Grant_table.unmap gd.Domain.grant ~handle))

let do_evtchn hv dom = function
  | Evtchn_alloc_unbound { allowed_remote } -> (
      match Event_channel.alloc_unbound dom.Domain.events ~allowed_remote with
      | Ok port -> Ok (Int64.of_int port)
      | Error e -> Error e)
  | Evtchn_bind_interdomain { remote_dom; remote_port } -> (
      match Hv.find_domain hv remote_dom with
      | None -> Error Errno.EINVAL
      | Some rd -> (
          match
            Event_channel.bind_interdomain ~local:dom.Domain.events ~local_dom:dom.Domain.id
              ~remote:rd.Domain.events ~remote_dom ~remote_port
          with
          | Ok port -> Ok (Int64.of_int port)
          | Error e -> Error e))
  | Evtchn_bind_virq { virq } -> (
      match Event_channel.bind_virq dom.Domain.events ~virq with
      | Ok port -> Ok (Int64.of_int port)
      | Error e -> Error e)
  | Evtchn_send { port } -> (
      Trace.charge hv.Hv.trace Vclock.Evtchn_send;
      (* interdomain semantics: signalling my port raises the peer's *)
      match Event_channel.port dom.Domain.events port with
      | Some { Event_channel.binding = Some (Event_channel.Interdomain { remote_dom; remote_port }); _ }
        -> (
          match Hv.find_domain hv remote_dom with
          | Some rd -> of_unit (Event_channel.send rd.Domain.events remote_port)
          | None -> Error Errno.EINVAL)
      | Some { Event_channel.binding = Some (Event_channel.Virq _); _ } ->
          of_unit (Event_channel.send dom.Domain.events port)
      | Some _ -> Error Errno.ENOENT
      | None -> Error Errno.EINVAL)
  | Evtchn_close { port } -> of_unit (Event_channel.close dom.Domain.events port)

let dispatch_uncounted hv dom call =
  if Hv.is_crashed hv then Error Errno.EINVAL
  else
    match call with
    | Mmu_update updates -> of_int (Mm.mmu_update hv dom ~updates)
    | Update_va_mapping { va; value } -> of_unit (Mm.update_va_mapping hv dom ~va value)
    | Memory_exchange req -> (
        match Memory_exchange.exchange hv dom req with
        | Ok { Memory_exchange.nr_exchanged; _ } -> Ok (Int64.of_int nr_exchanged)
        | Error e -> Error e)
    | Decrease_reservation pfns -> of_int (Mm.decrease_reservation hv dom pfns)
    | Grant_table_op op ->
        let tr = hv.Hv.trace in
        Trace.note_grant tr;
        if Trace.recording tr then
          Trace.emit tr (Trace.Grant_op { domid = dom.Domain.id; op = grant_op_index op });
        do_grant_op hv dom op
    | Event_channel_op op ->
        let tr = hv.Hv.trace in
        Trace.note_evtchn tr;
        if Trace.recording tr then
          Trace.emit tr (Trace.Evtchn_op { domid = dom.Domain.id; op = evtchn_op_index op });
        do_evtchn hv dom op
    | Console_io s ->
        Hv.log hv (Printf.sprintf "(d%d) %s" dom.Domain.id s);
        ok0
    | Raw { number; args } -> (
        match Hv.lookup_hypercall hv number with
        | Some (_, handler) -> handler hv dom args
        | None -> Error Errno.ENOSYS)

(* The call's work, inside its trace bracket. Everything the hypervisor
   writes on behalf of the call carries the call number as origin; more
   specific origins (the injector port) nest inside and win. Without
   provenance attached there is no origin to carry, so no origin or
   closure is built. *)
let dispatch_in (hv, dom, call) =
  match Phys_mem.provenance hv.Hv.mem with
  | None -> dispatch_uncounted hv dom call
  | Some _ ->
      Phys_mem.with_origin hv.Hv.mem (Provenance.Hypercall_arg (number_of_call call)) (fun () ->
          dispatch_uncounted hv dom call)

let dispatch hv dom call =
  let tr = hv.Hv.trace in
  let number = number_of_call call in
  (* Only a top-level call is a replayable input: nested calls (the
     balloon driver inside a recorded kernel tick) are consequences the
     replay regenerates, so their entry records carry no payload. *)
  if Trace.recording tr && Trace.top_level tr then begin
    let payload = encode_call call in
    Trace.emit tr
      (Trace.Hypercall
         { domid = dom.Domain.id; number; digest = Fnv.string payload; payload })
  end;
  (* the dispatch itself (entry, demux, exit) costs a fixed slice of
     virtual time; the work the call performs accrues inside *)
  Trace.charge tr Vclock.Hypercall_dispatch;
  let result = Trace.within tr dispatch_in (hv, dom, call) in
  Trace.note_hypercall tr ~number ~failed:(Result.is_error result);
  (match Trace.coverage tr with
  | Some cov ->
      Coverage.note_port cov ~nr:number
        ~outcome:(match result with Ok _ -> 0 | Error e -> Errno.to_int e)
  | None -> ());
  if Trace.recording tr then begin
    let rc = match result with Ok v -> v | Error e -> Int64.of_int (Errno.to_return_code e) in
    Trace.emit tr
      (Trace.Hypercall_ret
         { domid = dom.Domain.id; number; rc; failed = Result.is_error result })
  end;
  result

let return_code = function
  | Ok v -> Int64.to_int v
  | Error e -> Errno.to_return_code e
