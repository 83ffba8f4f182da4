type spec =
  | Idt_gate_corrupted of { vector : int }
  | Pud_entry_links_pmd of { pud_mfn : Addr.mfn; index : int; pmd_mfn : Addr.mfn }
  | L2_pse_mapping of { l2_mfn : Addr.mfn; index : int }
  | L4_selfmap_writable of { l4_mfn : Addr.mfn; slot : int }
  | Page_kept_after_release of { domid : int; mfn : Addr.mfn }
  | Interrupt_storm of { domid : int; min_pending : int }
  | Xenstore_tampered of { path : string; legitimate : string }
  | Vcpu_hung of { domid : int }
  | Wire_grant_writable of { granter : int; gref : int; grantee : int }
  | Dm_handler_corrupted

type audit = { holds : bool; evidence : string list }

let describe = function
  | Idt_gate_corrupted { vector } ->
      Printf.sprintf "IDT gate %d handler overwritten (descriptor-table corruption)" vector
  | Pud_entry_links_pmd { pud_mfn; index; pmd_mfn } ->
      Printf.sprintf "PUD mfn 0x%x entry %d links foreign PMD mfn 0x%x" pud_mfn index pmd_mfn
  | L2_pse_mapping { l2_mfn; index } ->
      Printf.sprintf "L2 mfn 0x%x entry %d is a PSE superpage over page-table frames" l2_mfn index
  | L4_selfmap_writable { l4_mfn; slot } ->
      Printf.sprintf "L4 mfn 0x%x slot %d is a writable self-mapping" l4_mfn slot
  | Page_kept_after_release { domid; mfn } ->
      Printf.sprintf "d%d keeps a live mapping of released frame 0x%x" domid mfn
  | Interrupt_storm { domid; min_pending } ->
      Printf.sprintf "d%d has >= %d pending event-channel ports" domid min_pending
  | Xenstore_tampered { path; legitimate } ->
      Printf.sprintf "xenstore node %s diverges from its legitimate value %S" path legitimate
  | Vcpu_hung { domid } -> Printf.sprintf "d%d vcpu stuck inside the hypervisor" domid
  | Wire_grant_writable { granter; gref; grantee } ->
      Printf.sprintf "d%d wire grant entry %d grants d%d writable access" granter gref grantee
  | Dm_handler_corrupted -> "device-model FDC request-handler pointer overwritten"

let entry_of hv mfn index =
  if Phys_mem.is_valid_mfn hv.Hv.mem mfn then Some (Frame.get_entry (Phys_mem.frame_ro hv.Hv.mem mfn) index)
  else None

let pte_evidence label e = Format.asprintf "%s = %a" label Pte.pp e

let audit ?dm hv spec =
  match spec with
  | Idt_gate_corrupted { vector } ->
      let gate = Idt.read_gate hv.Hv.mem hv.Hv.idt_mfn vector in
      let valid = gate.Idt.gate_present && Cpu.handler_name hv.Hv.cpu gate.Idt.handler <> None in
      {
        holds = not valid;
        evidence =
          [
            Printf.sprintf "idt[%d].handler = 0x%016Lx (%s)" vector gate.Idt.handler
              (match Cpu.handler_name hv.Hv.cpu gate.Idt.handler with
              | Some name -> "xen:" ^ name
              | None -> "not a Xen entry point");
          ];
      }
  | Pud_entry_links_pmd { pud_mfn; index; pmd_mfn } -> (
      match entry_of hv pud_mfn index with
      | None -> { holds = false; evidence = [ "PUD frame invalid" ] }
      | Some e ->
          let holds = Pte.is_present e && Pte.mfn e = pmd_mfn in
          { holds; evidence = [ pte_evidence (Printf.sprintf "pud[%d]" index) e ] })
  | L2_pse_mapping { l2_mfn; index } -> (
      match entry_of hv l2_mfn index with
      | None -> { holds = false; evidence = [ "L2 frame invalid" ] }
      | Some e ->
          let holds = Pte.is_present e && Pte.test Pte.Pse e && Pte.test Pte.Rw e in
          { holds; evidence = [ pte_evidence (Printf.sprintf "l2[%d]" index) e ] })
  | L4_selfmap_writable { l4_mfn; slot } -> (
      match entry_of hv l4_mfn slot with
      | None -> { holds = false; evidence = [ "L4 frame invalid" ] }
      | Some e ->
          let holds = Pte.is_present e && Pte.mfn e = l4_mfn && Pte.test Pte.Rw e in
          { holds; evidence = [ pte_evidence (Printf.sprintf "l4[%d]" slot) e ] })
  | Page_kept_after_release { domid; mfn } -> (
      match Hv.find_domain hv domid with
      | None -> { holds = false; evidence = [ Printf.sprintf "no domain %d" domid ] }
      | Some dom ->
          let owner = Phys_mem.owner hv.Hv.mem mfn in
          let foreign = owner <> Domain.owned dom in
          (* Scan the domain's reachable leaf entries for a mapping of
             the frame. We walk from the L4 root mechanically, exactly
             as the hardware would. *)
          let found = ref [] in
          let l4 = dom.Domain.l4_mfn in
          let frame_of m = Phys_mem.frame_ro hv.Hv.mem m in
          let in_range m = Phys_mem.is_valid_mfn hv.Hv.mem m in
          if in_range l4 then begin
            let l4f = frame_of l4 in
            for i4 = 0 to Addr.entries_per_table - 1 do
              let e4 = Frame.get_entry l4f i4 in
              if Pte.is_present e4 && in_range (Pte.mfn e4) && not (Layout.is_xen_l4_slot i4) then
                let l3f = frame_of (Pte.mfn e4) in
                for i3 = 0 to Addr.entries_per_table - 1 do
                  let e3 = Frame.get_entry l3f i3 in
                  if Pte.is_present e3 && in_range (Pte.mfn e3) then
                    let l2f = frame_of (Pte.mfn e3) in
                    for i2 = 0 to Addr.entries_per_table - 1 do
                      let e2 = Frame.get_entry l2f i2 in
                      if Pte.is_present e2 && (not (Pte.test Pte.Pse e2)) && in_range (Pte.mfn e2)
                      then
                        let l1f = frame_of (Pte.mfn e2) in
                        for i1 = 0 to Addr.entries_per_table - 1 do
                          let e1 = Frame.get_entry l1f i1 in
                          if Pte.is_present e1 && Pte.mfn e1 = mfn then
                            found :=
                              Printf.sprintf "leaf l1[%d] in table 0x%x maps 0x%x" i1 (Pte.mfn e2)
                                mfn
                              :: !found
                        done
                    done
                done
            done
          end;
          {
            holds = foreign && !found <> [];
            evidence =
              Printf.sprintf "frame 0x%x owner: %s" mfn
                (match owner with
                | Phys_mem.Free -> "free"
                | Phys_mem.Xen -> "Xen"
                | Phys_mem.Dom id -> Printf.sprintf "d%d" id)
              :: !found;
          })
  | Interrupt_storm { domid; min_pending } -> (
      match Hv.find_domain hv domid with
      | None -> { holds = false; evidence = [ Printf.sprintf "no domain %d" domid ] }
      | Some dom ->
          let pending = Event_channel.pending_count dom.Domain.events in
          {
            holds = pending >= min_pending;
            evidence = [ Printf.sprintf "d%d pending ports: %d" domid pending ];
          })
  | Xenstore_tampered { path; legitimate } -> (
      match Xenstore.read hv.Hv.xenstore ~caller:0 path with
      | Ok current ->
          {
            holds = current <> legitimate;
            evidence = [ Printf.sprintf "%s = %S (legitimate: %S)" path current legitimate ];
          }
      | Error e ->
          {
            holds = true;
            evidence = [ Printf.sprintf "%s unreadable (%s)" path (Errno.to_string e) ];
          })
  | Vcpu_hung { domid } -> (
      match List.assoc_opt domid (Sched.hung_vcpus hv.Hv.sched) with
      | Some reason ->
          { holds = true; evidence = [ Printf.sprintf "d%d vcpu hung: %s" domid reason ] }
      | None -> { holds = false; evidence = [ Printf.sprintf "d%d vcpu runnable" domid ] })
  | Wire_grant_writable { granter; gref; grantee } -> (
      match Hv.find_domain hv granter with
      | None -> { holds = false; evidence = [ Printf.sprintf "no domain %d" granter ] }
      | Some dom -> (
          let gt = dom.Domain.grant in
          (* parse the wire entry exactly as the hypervisor's map path
             does: 8-byte entries packed into the shared frames *)
          let per_frame = Addr.page_size / Grant_table.Wire.entry_size in
          match List.nth_opt (Grant_table.shared_frames gt) (gref / per_frame) with
          | None ->
              {
                holds = false;
                evidence = [ Printf.sprintf "d%d grant table not memory-backed at gref %d" granter gref ];
              }
          | Some frame_mfn ->
              let frame = Phys_mem.frame_ro hv.Hv.mem frame_mfn in
              let e = Grant_table.Wire.read frame (gref mod per_frame) in
              let permits = e.Grant_table.Wire.w_flags land Grant_table.Wire.gtf_permit_access <> 0 in
              let readonly = e.Grant_table.Wire.w_flags land Grant_table.Wire.gtf_readonly <> 0 in
              {
                holds = permits && (not readonly) && e.Grant_table.Wire.w_domid = grantee;
                evidence =
                  [
                    Printf.sprintf
                      "d%d wire gref %d @ mfn 0x%x: flags=0x%x domid=%d gfn=%d" granter gref
                      frame_mfn e.Grant_table.Wire.w_flags e.Grant_table.Wire.w_domid
                      e.Grant_table.Wire.w_gfn;
                  ];
              }))
  | Dm_handler_corrupted -> (
      match dm with
      | None -> { holds = false; evidence = [ "no device model attached" ] }
      | Some fdc ->
          {
            holds = not (Fdc.handler_intact fdc);
            evidence =
              [
                Printf.sprintf "fdc handler = 0x%016Lx (legitimate 0x%016Lx)"
                  (Fdc.handler_value fdc) Fdc.legitimate_handler;
              ];
          })

let pp_audit ppf { holds; evidence } =
  Format.fprintf ppf "@[<v2>%s:@ %a@]"
    (if holds then "erroneous state PRESENT" else "erroneous state absent")
    (Format.pp_print_list Format.pp_print_string)
    evidence

let walk_evidence hv ~cr3 va =
  let steps = Paging.walk_path hv.Hv.mem ~cr3 va in
  List.map
    (fun { Paging.level; table_mfn; index; entry } ->
      Format.asprintf "L%d table 0x%x [%d] -> %a" level table_mfn index Pte.pp entry)
    steps
