type account = {
  acc_target : Addr.mfn;
  acc_kind : [ `Data_ro | `Data_rw | `Table of int | `Linear ];
}

let safe_flags version ~level =
  let base = [ Pte.Accessed; Pte.Dirty ] in
  if level = 4 && not (Version.xsa182_fixed version) then Pte.Rw :: base else base

(* A foreign frame may be mapped when the owner granted it to us and the
   grant is currently mapped (maptrack), or when we are privileged. *)
let foreign_map_allowed hv dom ~target ~write =
  if dom.Domain.privileged then true
  else
    List.exists
      (fun granter ->
        List.exists
          (fun r ->
            r.Grant_table.mapper = dom.Domain.id
            && r.Grant_table.mapped_mfn = target
            && ((not write) || not r.Grant_table.map_readonly))
          (Grant_table.mappings granter.Domain.grant))
      hv.Hv.domains

let validate_l1 hv dom e =
  let target = Pte.mfn e in
  if not (Phys_mem.is_valid_mfn hv.Hv.mem target) then Error Errno.EINVAL
  else
    let write = Pte.test Pte.Rw e in
    if Phys_mem.is_owner hv.Hv.mem target Phys_mem.Free then Error Errno.EINVAL
    else if Phys_mem.is_owner hv.Hv.mem target Phys_mem.Xen then
      (* Guests may read the M2P and map their own grant-table
         frames; nothing else of Xen's, ever. *)
      if (not write) && Hv.is_m2p_frame hv target then
        Ok (Some { acc_target = target; acc_kind = `Data_ro })
      else if List.mem target (Grant_table.shared_frames dom.Domain.grant) then
        Ok (Some { acc_target = target; acc_kind = (if write then `Data_rw else `Data_ro) })
      else if
        (* The grant-ownership bug: 4.6 only checks that the target is
           *some* grant-table frame, not that it is the mapper's own —
           so a guest can map a co-resident domain's wire entries
           writable and forge grants. *)
        (not (Version.grant_frame_ownership_checked hv.Hv.version))
        && List.exists
             (fun d -> List.mem target (Grant_table.shared_frames d.Domain.grant))
             hv.Hv.domains
      then Ok (Some { acc_target = target; acc_kind = (if write then `Data_rw else `Data_ro) })
      else Error Errno.EPERM
    else if Phys_mem.is_owner hv.Hv.mem target (Domain.owned dom) then
      if write then
        if Page_info.live_table hv.Hv.pages target then Error Errno.EPERM
          (* no writable mappings of page tables: the direct-paging rule *)
        else Ok (Some { acc_target = target; acc_kind = `Data_rw })
      else Ok (Some { acc_target = target; acc_kind = `Data_ro })
    else if foreign_map_allowed hv dom ~target ~write then
      Ok (Some { acc_target = target; acc_kind = (if write then `Data_rw else `Data_ro) })
    else Error Errno.EPERM

let validate_upper hv dom ~level e =
  let target = Pte.mfn e in
  if not (Phys_mem.is_valid_mfn hv.Hv.mem target) then Error Errno.EINVAL
  else
    let pages = hv.Hv.pages in
    let owned = Phys_mem.is_owner hv.Hv.mem target (Domain.owned dom) in
    let same_level = Page_info.ptype pages target = Page_info.ptype_of_level level in
    if same_level && Page_info.type_count pages target > 0 then
      (* Linear (recursive) page-table link: legal read-only only. *)
      if Pte.test Pte.Rw e then Error Errno.EPERM
      else if not owned then Error Errno.EPERM
      else Ok (Some { acc_target = target; acc_kind = `Linear })
    else if not owned then Error Errno.EPERM
    else Ok (Some { acc_target = target; acc_kind = `Table (level - 1) })

let validate_entry hv dom ~level ~table_mfn e =
  ignore table_mfn;
  if not (Pte.is_present e) then Ok None
  else
    match level with
    | 1 -> validate_l1 hv dom e
    | 2 ->
        if Pte.test Pte.Pse e && Version.xsa148_fixed hv.Hv.version then
          (* The check XSA-148 was missing: PV guests get no superpages. *)
          Error Errno.EINVAL
        else validate_upper hv dom ~level e
    | 3 | 4 -> validate_upper hv dom ~level e
    | _ -> Error Errno.EINVAL

(* --- accounting ------------------------------------------------------ *)

(* A [Page_info] type transition (PGT_none <-> writable/table), fed to
   the trace: the counter always, a ring record while recording. *)
let trace_ptype hv mfn ~from_type ~to_type =
  let tr = hv.Hv.trace in
  Trace.note_page_type tr;
  if Trace.recording tr then
    Trace.emit tr
      (Trace.Page_type
         {
           mfn;
           from_type = Page_info.ptype_code from_type;
           to_type = Page_info.ptype_code to_type;
         })

let rec commit_account hv dom = function
  | None -> Ok ()
  | Some { acc_target; acc_kind } -> (
      match acc_kind with
      | `Data_ro | `Linear ->
          Page_info.get_page hv.Hv.pages acc_target;
          Ok ()
      | `Data_rw -> (
          match Page_info.get_page_type hv.Hv.pages acc_target Page_info.PGT_writable with
          | Ok () ->
              if Page_info.type_count hv.Hv.pages acc_target = 1 then
                trace_ptype hv acc_target ~from_type:Page_info.PGT_none
                  ~to_type:Page_info.PGT_writable;
              Page_info.get_page hv.Hv.pages acc_target;
              Ok ()
          | Error e -> Error e)
      | `Table level -> (
          match promote hv dom ~level acc_target with
          | Ok () ->
              Page_info.get_page hv.Hv.pages acc_target;
              Ok ()
          | Error e -> Error e))

and put_writable_type hv mfn =
  Page_info.put_page_type hv.Hv.pages mfn;
  if Page_info.type_count hv.Hv.pages mfn = 0 then
    trace_ptype hv mfn ~from_type:Page_info.PGT_writable ~to_type:Page_info.PGT_none

and uncommit_account hv dom = function
  | None -> ()
  | Some { acc_target; acc_kind } -> (
      Page_info.put_page hv.Hv.pages acc_target;
      match acc_kind with
      | `Data_ro | `Linear -> ()
      | `Data_rw -> put_writable_type hv acc_target
      | `Table _ -> put_table_type hv dom acc_target)

(* Classify an existing (present) entry so it can be un-accounted. The
   classification mirrors what commit did when the entry was installed. *)
and classify_existing hv ~level e =
  if not (Pte.is_present e) then None
  else
    let target = Pte.mfn e in
    if not (Phys_mem.is_valid_mfn hv.Hv.mem target) then None
    else
      if level >= 2 then
        if Page_info.ptype hv.Hv.pages target = Page_info.ptype_of_level level then
          Some { acc_target = target; acc_kind = `Linear }
        else Some { acc_target = target; acc_kind = `Table (level - 1) }
      else if Pte.test Pte.Rw e then Some { acc_target = target; acc_kind = `Data_rw }
      else Some { acc_target = target; acc_kind = `Data_ro }

and unaccount_existing hv dom ~level e =
  match classify_existing hv ~level e with
  | None -> ()
  | Some { acc_target; acc_kind } -> (
      Page_info.put_page hv.Hv.pages acc_target;
      match acc_kind with
      | `Data_ro | `Linear -> ()
      | `Data_rw -> put_writable_type hv acc_target
      | `Table _ -> put_table_type hv dom acc_target)

(* --- promotion / demotion ------------------------------------------- *)

and promote hv dom ~level mfn =
  let pages = hv.Hv.pages in
  let wanted = Page_info.ptype_of_level level in
  (* one more use of a live table of this level, or EBUSY for another
     live type *)
  if Page_info.type_count pages mfn > 0 then Page_info.get_page_type pages mfn wanted
  else if not (Phys_mem.is_owner hv.Hv.mem mfn (Domain.owned dom)) then Error Errno.EPERM
  else begin
    (* Mark in progress so recursive self-references resolve as linear. *)
    Page_info.set_type pages mfn wanted ~count:1;
    Page_info.set_validated pages mfn false;
    let frame = Phys_mem.frame hv.Hv.mem mfn in
    let committed = ref [] in
    let rollback () =
      List.iter (fun acc -> uncommit_account hv dom acc) !committed;
      Page_info.set_type pages mfn Page_info.PGT_none ~count:0
    in
    let rec entries index =
      if index >= Addr.entries_per_table then Ok ()
      else if level = 4 && Layout.is_xen_l4_slot index then entries (index + 1)
      else
        let () =
          Phys_mem.observe hv.Hv.mem ~consumer:Provenance.Page_type_check ~mfn
            ~off:(8 * index) ~len:8
        in
        let e = Frame.get_entry frame index in
        if not (Pte.is_present e) then entries (index + 1)
        else if
          level = 4 && not (Layout.guest_may_own_l4_slot ~hardened:(Hv.hardened hv) index)
        then Error Errno.EPERM
        else
          match validate_entry hv dom ~level ~table_mfn:mfn e with
          | Error err -> Error err
          | Ok acc -> (
              match commit_account hv dom acc with
              | Error err -> Error err
              | Ok () ->
                  committed := acc :: !committed;
                  entries (index + 1))
    in
    match entries 0 with
    | Ok () ->
        Page_info.set_validated pages mfn true;
        trace_ptype hv mfn ~from_type:Page_info.PGT_none ~to_type:wanted;
        Ok ()
    | Error err ->
        rollback ();
        Error err
  end

and put_table_type hv dom mfn =
  let pages = hv.Hv.pages in
  let old_ptype = Page_info.ptype pages mfn in
  Page_info.put_page_type pages mfn;
  if Page_info.type_count pages mfn = 0 then begin
    trace_ptype hv mfn ~from_type:old_ptype ~to_type:Page_info.PGT_none;
    match Page_info.table_level old_ptype with
    | None -> ()
    | Some level ->
        (* Last type reference gone: the table stops being a table and
           its entries stop pinning their targets. *)
        let frame = Phys_mem.frame hv.Hv.mem mfn in
        for index = 0 to Addr.entries_per_table - 1 do
          if not (level = 4 && Layout.is_xen_l4_slot index) then begin
            Phys_mem.observe hv.Hv.mem ~consumer:Provenance.Page_type_check ~mfn
              ~off:(8 * index) ~len:8;
            let e = Frame.get_entry frame index in
            if Pte.is_present e then unaccount_existing hv dom ~level e
          end
        done
  end

(* --- TLB flushing ----------------------------------------------------- *)

(* What a successful page-table write must do to the software TLB.
   Real Xen flushes after mmu_update batches and uses UVMF_INVLPG for
   update_va_mapping; the raw injector path skips this module entirely,
   which is exactly how it leaves stale translations behind. *)
type flush = Flush_none | Flush_all | Flush_page of Addr.mfn * Addr.vaddr

let do_flush hv = function
  | Flush_none -> ()
  | Flush_all -> Hv.tlb_flush_all hv
  | Flush_page (cr3, va) -> Hv.tlb_invlpg hv ~cr3 va

(* --- mmu_update ------------------------------------------------------ *)

let locate_table hv dom ptr =
  let ma = Int64.logand ptr (Int64.lognot 7L) in
  let table_mfn = Addr.mfn_of_maddr ma in
  if not (Phys_mem.is_valid_mfn hv.Hv.mem table_mfn) then Error Errno.EINVAL
  else
    let pages = hv.Hv.pages and mem = hv.Hv.mem in
    (* a privileged domain may update any domain's tables *)
    let owned =
      Phys_mem.is_owner mem table_mfn (Domain.owned dom)
      || dom.Domain.privileged
         && not
              (Phys_mem.is_owner mem table_mfn Phys_mem.Free
              || Phys_mem.is_owner mem table_mfn Phys_mem.Xen)
    in
    match Page_info.table_level (Page_info.ptype pages table_mfn) with
    | Some level
      when owned && Page_info.type_count pages table_mfn > 0 && Page_info.validated pages table_mfn
      ->
        Ok (table_mfn, level, Int64.to_int (Int64.logand ptr 0xFFFL) / 8)
    | Some _ | None -> if owned then Error Errno.EINVAL else Error Errno.EPERM

let apply_one ?(flush = Flush_all) hv dom ~ptr ~value =
  match locate_table hv dom ptr with
  | Error e -> Error e
  | Ok (table_mfn, level, index) ->
      if level = 4 && not (Layout.guest_may_own_l4_slot ~hardened:(Hv.hardened hv) index) then
        Error Errno.EPERM
      else
        let frame = Phys_mem.frame hv.Hv.mem table_mfn in
        Phys_mem.observe hv.Hv.mem ~consumer:Provenance.Page_type_check ~mfn:table_mfn
          ~off:(8 * index) ~len:8;
        let old_e = Frame.get_entry frame index in
        let fast_path =
          Pte.is_present old_e && Pte.is_present value
          && Pte.mfn old_e = Pte.mfn value
          && Pte.flags_equal_modulo ~ignore:(safe_flags hv.Hv.version ~level) old_e value
        in
        if fast_path then begin
          (* The XSA-182 bug lives here: on 4.6 this path accepts an RW
             upgrade of an L4 entry without revalidation. *)
          Trace.charge hv.Hv.trace Vclock.Pte_install;
          Frame.set_entry frame index value;
          Phys_mem.taint hv.Hv.mem ~mfn:table_mfn ~off:(8 * index) ~len:8;
          Hv.notify_pt_write hv table_mfn;
          do_flush hv flush;
          Ok ()
        end
        else
          (* Full path: validate and account the new entry, then retire
             the old one. *)
          (match validate_entry hv dom ~level ~table_mfn value with
          | Error e -> Error e
          | Ok acc -> (
              match commit_account hv dom acc with
              | Error e -> Error e
              | Ok () ->
                  if Pte.is_present old_e then unaccount_existing hv dom ~level old_e;
                  Trace.charge hv.Hv.trace Vclock.Pte_install;
                  Frame.set_entry frame index value;
                  Phys_mem.taint hv.Hv.mem ~mfn:table_mfn ~off:(8 * index) ~len:8;
                  Hv.notify_pt_write hv table_mfn;
                  do_flush hv flush;
                  Ok ()))

let mmu_update ?flush hv dom ~updates =
  if Hv.is_crashed hv then Error Errno.EINVAL
  else
    let rec go n = function
      | [] -> Ok n
      | (ptr, value) :: rest -> (
          let cmd = Int64.to_int (Int64.logand ptr 3L) in
          if cmd <> 0 then Error Errno.ENOSYS
          else
            match apply_one ?flush hv dom ~ptr ~value with
            | Ok () -> go (n + 1) rest
            | Error e -> Error e)
    in
    go 0 updates

(* --- update_va_mapping ----------------------------------------------- *)

(* The one-entry [mmu_update] on the L1 entry mapping [va]; a walk that
   ends before level 1 (not present, or a superpage leaf, which is not
   updatable entry-wise) is refused. *)
let update_va_mapping hv dom ~va value =
  let slot = Paging.l1_entry_maddr hv.Hv.mem ~cr3:dom.Domain.l4_mfn va in
  if slot < 0 || Hv.is_crashed hv then Error Errno.EINVAL
  else
    (* UVMF_INVLPG: a single-entry update needs only a targeted flush *)
    apply_one ~flush:(Flush_page (dom.Domain.l4_mfn, va)) hv dom ~ptr:(Int64.of_int slot) ~value

(* --- pinning / cr3 ---------------------------------------------------- *)

let pin_table hv dom ~level mfn =
  match promote hv dom ~level mfn with
  | Error e -> Error e
  | Ok () ->
      Page_info.set_pinned hv.Hv.pages mfn true;
      Ok ()

let set_baseptr hv dom mfn =
  match promote hv dom ~level:4 mfn with
  | Error e -> Error e
  | Ok () ->
      let old = dom.Domain.l4_mfn in
      dom.Domain.l4_mfn <- mfn;
      if Phys_mem.is_valid_mfn hv.Hv.mem old && old <> mfn then put_table_type hv dom old;
      (* a CR3 load flushes all non-global translations *)
      Hv.tlb_flush_all hv;
      Ok ()

(* --- decrease_reservation -------------------------------------------- *)

let decrease_reservation hv dom pfns =
  let rec go n = function
    | [] -> Ok n
    | pfn :: rest -> (
        match Domain.mfn_of_pfn dom pfn with
        | None -> Error Errno.EINVAL
        | Some mfn -> (
            match Hv.release_page hv mfn with
            | Error e -> Error e
            | Ok () ->
                Domain.set_p2m dom pfn None;
                Hv.m2p_set hv mfn None;
                go (n + 1) rest))
  in
  go 0 pfns
