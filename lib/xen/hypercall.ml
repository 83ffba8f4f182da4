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
   testbed. Each payload constructor is one case of a tagged variant on
   the trace ring's wire codec, declared with its tag, its fields and
   its constructor; each variant's view names a value's case. Call
   tag 1 is unassigned. *)

module W = Trace.Wire

let grant_ops = W.variant "grant op"

let gnttab_setup_table =
  W.case grant_ops 0 W.u32 (fun nr_frames -> Gnttab_setup_table { nr_frames })

let gnttab_set_version =
  W.case grant_ops 1
    (W.enum "grant table version" [ (1, Grant_table.V1); (2, Grant_table.V2) ])
    (fun v -> Gnttab_set_version v)

let gnttab_grant_access =
  W.(case grant_ops 2 (u32 & u32 & u32 & flag)) (fun (gref, (grantee, (pfn, readonly))) ->
      Gnttab_grant_access { gref; grantee; pfn; readonly })

let gnttab_end_access = W.case grant_ops 3 W.u32 (fun gref -> Gnttab_end_access { gref })

let gnttab_map =
  W.(case grant_ops 4 (u32 & u32)) (fun (granter, gref) -> Gnttab_map { granter; gref })

let gnttab_unmap =
  W.(case grant_ops 5 (u32 & u32)) (fun (granter, handle) -> Gnttab_unmap { granter; handle })

let grant_op_view = function
  | Gnttab_setup_table { nr_frames } -> W.Value (gnttab_setup_table, nr_frames)
  | Gnttab_set_version v -> W.Value (gnttab_set_version, v)
  | Gnttab_grant_access { gref; grantee; pfn; readonly } ->
      W.Value (gnttab_grant_access, (gref, (grantee, (pfn, readonly))))
  | Gnttab_end_access { gref } -> W.Value (gnttab_end_access, gref)
  | Gnttab_map { granter; gref } -> W.Value (gnttab_map, (granter, gref))
  | Gnttab_unmap { granter; handle } -> W.Value (gnttab_unmap, (granter, handle))

let evtchn_ops = W.variant "event channel op"

let evtchn_alloc_unbound =
  W.case evtchn_ops 0 W.u32 (fun allowed_remote -> Evtchn_alloc_unbound { allowed_remote })

let evtchn_bind_interdomain =
  W.(case evtchn_ops 1 (u32 & u32)) (fun (remote_dom, remote_port) ->
      Evtchn_bind_interdomain { remote_dom; remote_port })

let evtchn_bind_virq = W.case evtchn_ops 2 W.u32 (fun virq -> Evtchn_bind_virq { virq })
let evtchn_send = W.case evtchn_ops 3 W.u32 (fun port -> Evtchn_send { port })
let evtchn_close = W.case evtchn_ops 4 W.u32 (fun port -> Evtchn_close { port })

let evtchn_op_view = function
  | Evtchn_alloc_unbound { allowed_remote } -> W.Value (evtchn_alloc_unbound, allowed_remote)
  | Evtchn_bind_interdomain { remote_dom; remote_port } ->
      W.Value (evtchn_bind_interdomain, (remote_dom, remote_port))
  | Evtchn_bind_virq { virq } -> W.Value (evtchn_bind_virq, virq)
  | Evtchn_send { port } -> W.Value (evtchn_send, port)
  | Evtchn_close { port } -> W.Value (evtchn_close, port)

let calls = W.variant "hypercall payload"
let mmu_update = W.(case calls 0 (list u32 (i64 & i64))) (fun updates -> Mmu_update updates)

let update_va_mapping =
  W.(case calls 2 (i64 & i64)) (fun (va, value) -> Update_va_mapping { va; value })

let memory_exchange =
  W.(case calls 3 (list u32 u32 & i64)) (fun (in_pfns, out_extent_start) ->
      Memory_exchange { Memory_exchange.in_pfns; out_extent_start })

let decrease_reservation = W.(case calls 4 (list u32 u32)) (fun pfns -> Decrease_reservation pfns)

let grant_table_op =
  W.case calls 5 (W.tagged grant_ops grant_op_view) (fun op -> Grant_table_op op)

let event_channel_op =
  W.case calls 6 (W.tagged evtchn_ops evtchn_op_view) (fun op -> Event_channel_op op)

let console_io = W.case calls 7 W.str (fun s -> Console_io s)

let raw =
  W.(case calls 8 (u32 & conv Array.of_list Array.to_list (list u32 i64))) (fun (number, args) ->
      Raw { number; args })

let call =
  W.tagged calls (function
    | Mmu_update updates -> W.Value (mmu_update, updates)
    | Update_va_mapping { va; value } -> W.Value (update_va_mapping, (va, value))
    | Memory_exchange { Memory_exchange.in_pfns; out_extent_start } ->
        W.Value (memory_exchange, (in_pfns, out_extent_start))
    | Decrease_reservation pfns -> W.Value (decrease_reservation, pfns)
    | Grant_table_op op -> W.Value (grant_table_op, op)
    | Event_channel_op op -> W.Value (event_channel_op, op)
    | Console_io s -> W.Value (console_io, s)
    | Raw { number; args } -> W.Value (raw, (number, args)))

let encode_call = W.encode call
let decode_call = W.decode call
let grant_op_index = W.tag_of grant_op_view
let evtchn_op_index = W.tag_of evtchn_op_view

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
let dispatch_in hv dom call =
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
  let result = Trace.within3 tr dispatch_in hv dom call in
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
