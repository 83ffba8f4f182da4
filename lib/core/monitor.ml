type violation =
  | Hypervisor_crash of string
  | Privilege_escalation of string
  | Unauthorized_disclosure of string
  | Integrity_violation of string
  | Guest_crash of string
  | Availability_degradation of string

type snapshot = {
  crashed : bool;
  crash_reason : string option;
  root_artifacts : (string * string) list;
  root_shells : (string * string) list;
  disclosed : string list;
  guest_crashes : string list;
  pending_events : (string * int) list;
  pt_exposure : (string * int) list;
  m2p_mismatches : int;
  domain_pages : (string * int) list;
  sched_stalled : int;
  free_frames : int;
}

(* --- cross-trial scan cache ------------------------------------------
   Campaign loops snapshot the same reset-to-baseline testbed thousands
   of times; almost every trial leaves the page-table trees and the M2P
   untouched. The cache remembers baseline scan results and reuses them
   whenever it can prove the inputs did not change:

   - it is (re-)anchored at the lowest (baseline epoch, Page_info
     generation) pair it observes. Restore rewinds the generation to the
     checkpointed value and every type/ownership mutation bumps it, so
     generation = anchor iff the type state equals the baseline's;
   - each cached page-table scan records the table frames it visited;
     the entry is only valid while [Phys_mem.dirty_list] (frames touched
     since baseline) stays disjoint from that set.

   A cache must not outlive its testbed or be shared across testbeds:
   the anchor identifies a baseline, not a hypervisor. *)

type scan_cache = {
  c_pt : (int, pt_cached) Hashtbl.t;  (* domain id -> baseline scan *)
  mutable c_m2p : int option;  (* baseline M2P mismatch count *)
  mutable c_anchor : (int * int) option;  (* baseline epoch, Page_info gen *)
}

and pt_cached = {
  pc_count : int;
  pc_l4 : Addr.mfn;
  pc_deps : (Addr.mfn, unit) Hashtbl.t;  (* table frames the scan read *)
}

let create_scan_cache () =
  { c_pt = Hashtbl.create 8; c_m2p = None; c_anchor = None }

(* True iff the current type state provably equals the cache's baseline;
   drops stale contents when the baseline itself moved. *)
let cache_anchored cache hv =
  let e = Phys_mem.baseline_epoch hv.Hv.mem in
  let g = Page_info.generation hv.Hv.pages in
  match cache.c_anchor with
  | Some (ae, ag) when ae = e && ag = g -> true
  | Some (ae, ag) when ae = e && g > ag -> false
  | _ ->
      Hashtbl.reset cache.c_pt;
      cache.c_m2p <- None;
      cache.c_anchor <- Some (e, g);
      true

let disjoint_from_dirty hv deps =
  List.for_all (fun m -> not (Hashtbl.mem deps m)) (Phys_mem.dirty_list hv.Hv.mem)

(* The M2P must stay the inverse of every domain's P2M — a hypervisor
   invariant any auditing monitor can check from outside the guests. *)
let m2p_mismatch_fresh hv =
  List.fold_left
    (fun acc dom ->
      List.fold_left
        (fun acc pfn ->
          match Domain.mfn_of_pfn dom pfn with
          | Some mfn when Hv.m2p_lookup hv mfn <> Some pfn ->
              (* the verdict depends on the inconsistent M2P entry *)
              let m2p_mfn, off = Hv.m2p_frame_for hv mfn in
              Phys_mem.observe hv.Hv.mem ~consumer:Provenance.M2p_check ~mfn:m2p_mfn ~off
                ~len:8;
              acc + 1
          | Some _ | None -> acc)
        acc (Domain.populated_pfns dom))
    0 hv.Hv.domains

(* Every P2M mutation in the hypervisor goes through an allocation or a
   release (both bump the Page_info generation, i.e. break the anchor),
   so with the anchor held the count can only change through raw writes
   to the M2P frames themselves — which the dirty list exposes. *)
let m2p_mismatch_count ?cache hv =
  match cache with
  | Some c when cache_anchored c hv ->
      let m2p_clean =
        List.for_all (fun m -> not (Hv.is_m2p_frame hv m)) (Phys_mem.dirty_list hv.Hv.mem)
      in
      (match c.c_m2p with
      | Some n when m2p_clean -> n
      | _ ->
          let n = m2p_mismatch_fresh hv in
          if m2p_clean then c.c_m2p <- Some n;
          n)
  | Some _ | None -> m2p_mismatch_fresh hv

(* Walk a domain's live page tables exactly like the MMU would, counting
   leaf (and PSE superpage) mappings that grant guest-privilege write
   access to frames currently typed as page tables. The address-space
   layout filter is what lets hardened versions "handle" states that
   older layouts expose. *)
(* [memo] caches subtree counts within one snapshot, keyed by
   everything the count depends on — table frame, level, VA prefix and
   the accumulated RW permission — so the Xen structures mapped into all
   three domains at the same slots are scanned once, not per domain. *)
let writable_pt_exposure ?memo ?cache hv dom =
  let mem = hv.Hv.mem in
  let hardened = Hv.hardened hv in
  let typed_pt mfn =
    Phys_mem.is_valid_mfn mem mfn
    &&
    let info = Page_info.get hv.Hv.pages mfn in
    Page_info.table_level info.Page_info.ptype <> None && info.Page_info.type_count > 0
  in
  let guest_writable va = Layout.guest_access ~hardened (Addr.canonical va) = Layout.Read_write in
  let shift level = Addr.page_shift + (9 * (level - 1)) in
  let deps = match cache with Some _ -> Some (Hashtbl.create 32) | None -> None in
  let rec scan level table_mfn va_prefix rw =
    if not (Phys_mem.is_valid_mfn mem table_mfn) then 0
    else begin
      (match deps with Some d -> Hashtbl.replace d table_mfn () | None -> ());
      let frame = Phys_mem.frame_ro mem table_mfn in
      let count = ref 0 in
      (* iter_present probes the present bit with byte loads inside
         Frame, so absent entries (most of any table) cost neither an
         int64 decode nor a cross-module call *)
      Frame.iter_present frame (fun index e ->
          let va = Int64.logor va_prefix (Int64.shift_left (Int64.of_int index) (shift level)) in
          let rw = rw && Pte.test Pte.Rw e in
          let flag () =
            (* a flagged mapping is evidence read out of this entry *)
            Phys_mem.observe mem ~consumer:Provenance.Monitor_scan ~mfn:table_mfn
              ~off:(8 * index) ~len:8;
            incr count
          in
          if level = 1 then begin
            if rw && typed_pt (Pte.mfn e) && guest_writable va then flag ()
          end
          else if level = 2 && Pte.test Pte.Pse e then begin
            if rw && guest_writable va then begin
              let base = Pte.mfn e land lnot 0x1ff in
              for m = base to base + 511 do
                if typed_pt m then flag ()
              done
            end
          end
          else count := !count + scan_memo (level - 1) (Pte.mfn e) va rw);
      !count
    end
  and scan_memo level table_mfn va_prefix rw =
    (* the memo shortcut would skip dependency recording, so it is only
       taken when no cache is collecting deps *)
    match (memo, deps) with
    | None, _ | Some _, Some _ -> scan level table_mfn va_prefix rw
    | Some tbl, None -> (
        let key = (level, table_mfn, va_prefix, rw) in
        match Hashtbl.find_opt tbl key with
        | Some n -> n
        | None ->
            let n = scan level table_mfn va_prefix rw in
            Hashtbl.add tbl key n;
            n)
  in
  let fresh () = scan_memo 4 dom.Domain.l4_mfn 0L true in
  match (cache, deps) with
  | Some c, Some d when cache_anchored c hv -> (
      match Hashtbl.find_opt c.c_pt dom.Domain.id with
      | Some pc
        when pc.pc_l4 = dom.Domain.l4_mfn && disjoint_from_dirty hv pc.pc_deps ->
          pc.pc_count
      | _ ->
          let count = fresh () in
          (* only a scan of untouched-since-baseline tables is a
             baseline scan worth keeping *)
          if disjoint_from_dirty hv d then
            Hashtbl.replace c.c_pt dom.Domain.id
              { pc_count = count; pc_l4 = dom.Domain.l4_mfn; pc_deps = d };
          count)
  | _ -> fresh ()

let root_secrets kernel =
  let fs = Kernel.fs kernel in
  List.filter_map
    (fun path ->
      match Fs.read fs path with
      | Some { Fs.uid = 0; content; _ } when content <> "" -> Some (path, content)
      | Some _ | None -> None)
    (Fs.paths fs)

let snapshot ?cache (tb : Testbed.t) =
  let kernels = Testbed.kernels tb in
  let root_artifacts =
    List.concat_map
      (fun k ->
        List.map (fun (path, _) -> (Kernel.hostname k, path)) (root_secrets k))
      kernels
  in
  let connections =
    Netsim.connections_to tb.Testbed.net ~host:tb.Testbed.remote_host ~port:1234
  in
  let root_shells =
    List.filter_map
      (fun c -> if c.Netsim.conn_uid = 0 then Some (c.Netsim.from_host, c.Netsim.to_host) else None)
      connections
  in
  (* A secret is disclosed when its content shows up in the transcript
     of a cross-host connection. *)
  let disclosed =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun (path, content) ->
            let leaked =
              List.exists
                (fun c ->
                  c.Netsim.from_host = Kernel.hostname k
                  &&
                  let t = Netsim.transcript c in
                  let n = String.length content and m = String.length t in
                  let rec search i =
                    if i + n > m then false
                    else if String.sub t i n = content then true
                    else search (i + 1)
                  in
                  n > 0 && search 0)
                connections
            in
            if leaked then Some (Printf.sprintf "%s:%s" (Kernel.hostname k) path) else None)
          (root_secrets k))
      kernels
  in
  let guest_crashes =
    List.filter_map
      (fun k -> if (Kernel.dom k).Domain.dom_crashed then Some (Kernel.hostname k) else None)
      kernels
  in
  let pending_events =
    List.map
      (fun k ->
        ( Kernel.hostname k,
          Event_channel.pending_count (Kernel.dom k).Domain.events ))
      kernels
  in
  let pt_exposure =
    (* With a cross-trial cache, reuse baseline scans; otherwise share a
       memo across the three domains so Xen mappings mapped at the same
       slots are walked once per snapshot instead of once per domain. *)
    match cache with
    | Some _ ->
        List.map
          (fun k -> (Kernel.hostname k, writable_pt_exposure ?cache tb.Testbed.hv (Kernel.dom k)))
          kernels
    | None ->
        let memo = Hashtbl.create 64 in
        List.map
          (fun k -> (Kernel.hostname k, writable_pt_exposure ~memo tb.Testbed.hv (Kernel.dom k)))
          kernels
  in
  {
    crashed = Hv.is_crashed tb.Testbed.hv;
    crash_reason =
      (match tb.Testbed.hv.Hv.crashed with Some { Hv.reason; _ } -> Some reason | None -> None);
    root_artifacts;
    root_shells;
    disclosed;
    guest_crashes;
    pending_events;
    pt_exposure;
    m2p_mismatches = m2p_mismatch_count ?cache tb.Testbed.hv;
    domain_pages =
      List.map
        (fun k ->
          (Kernel.hostname k, Domain.populated_count (Kernel.dom k)))
        kernels;
    sched_stalled = Sched.stalled_slices tb.Testbed.hv.Hv.sched;
    free_frames = Phys_mem.free_frames tb.Testbed.hv.Hv.mem;
  }

let subtract l before = List.filter (fun x -> not (List.mem x before)) l

(* Every violation, tagged with the domain (hostname) it was observed
   in — [None] for host-level conditions (hypervisor crash, M2P
   divergence, scheduler stalls, memory exhaustion). The tagged list is
   the source of truth; [violations] projects the tags away, so the
   historical ordering is preserved exactly. *)
let violations_tagged ~before ~after =
  let crash =
    if after.crashed && not before.crashed then
      [ (None, Hypervisor_crash (Option.value ~default:"crash" after.crash_reason)) ]
    else []
  in
  let escalations =
    List.map
      (fun (host, path) ->
        (Some host, Privilege_escalation (Printf.sprintf "root file %s on %s" path host)))
      (subtract after.root_artifacts before.root_artifacts)
    @ List.map
        (fun (victim, remote) ->
          (Some victim, Privilege_escalation (Printf.sprintf "root shell from %s to %s" victim remote)))
        (subtract after.root_shells before.root_shells)
  in
  let disclosures =
    List.map
      (fun s ->
        let host = match String.index_opt s ':' with
          | Some i -> Some (String.sub s 0 i)
          | None -> None
        in
        (host, Unauthorized_disclosure s))
      (subtract after.disclosed before.disclosed)
  in
  let guest_crashes =
    List.map (fun h -> (Some h, Guest_crash h)) (subtract after.guest_crashes before.guest_crashes)
  in
  let storms =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.pending_events with
        | Some n0 when n - n0 >= 16 ->
            Some
              ( Some host,
                Availability_degradation
                  (Printf.sprintf "interrupt storm on %s (+%d)" host (n - n0)) )
        | Some _ | None -> None)
      after.pending_events
  in
  let integrity =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.pt_exposure with
        | Some n0 when n > n0 ->
            Some
              ( Some host,
                Integrity_violation
                  (Printf.sprintf "guest-writable page-table mappings on %s (+%d)" host (n - n0))
              )
        | Some _ | None -> None)
      after.pt_exposure
  in
  let m2p =
    if after.m2p_mismatches > before.m2p_mismatches then
      [
        ( None,
          Integrity_violation
            (Printf.sprintf "M2P/P2M divergence (+%d entries)"
               (after.m2p_mismatches - before.m2p_mismatches)) );
      ]
    else []
  in
  let memory_loss =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.domain_pages with
        | Some n0 when n0 - n >= 8 ->
            Some
              ( Some host,
                Availability_degradation
                  (Printf.sprintf "%s lost %d pages to balloon pressure" host (n0 - n)) )
        | Some _ | None -> None)
      after.domain_pages
  in
  let stalls =
    if after.sched_stalled > before.sched_stalled then
      [
        ( None,
          Availability_degradation
            (Printf.sprintf "pCPU stalled for %d scheduler slices" after.sched_stalled) );
      ]
    else []
  in
  let exhaustion =
    if before.free_frames > 0 && after.free_frames * 2 < before.free_frames then
      [
        ( None,
          Availability_degradation
            (Printf.sprintf "host memory exhaustion (%d -> %d free frames)" before.free_frames
               after.free_frames) );
      ]
    else []
  in
  crash @ escalations @ disclosures @ integrity @ m2p @ guest_crashes @ storms @ memory_loss
  @ stalls @ exhaustion

let violations ~before ~after = List.map snd (violations_tagged ~before ~after)

(* Group the tagged list by domain, preserving first-appearance order of
   the domains and the within-domain violation order. Host-level
   violations group under "host". *)
let violations_by_domain ~before ~after =
  let tagged = violations_tagged ~before ~after in
  let key = function Some h -> h | None -> "host" in
  let doms =
    List.fold_left
      (fun acc (tag, _) ->
        let k = key tag in
        if List.mem k acc then acc else k :: acc)
      [] tagged
  in
  List.rev_map
    (fun d -> (d, List.filter_map (fun (tag, v) -> if key tag = d then Some v else None) tagged))
    doms

let violation_to_string = function
  | Hypervisor_crash r -> Printf.sprintf "hypervisor crash (%s)" r
  | Privilege_escalation e -> Printf.sprintf "privilege escalation (%s)" e
  | Unauthorized_disclosure e -> Printf.sprintf "unauthorized disclosure (%s)" e
  | Integrity_violation e -> Printf.sprintf "integrity violation (%s)" e
  | Guest_crash h -> Printf.sprintf "guest crash (%s)" h
  | Availability_degradation e -> Printf.sprintf "availability degradation (%s)" e

let pp_violation ppf v = Format.pp_print_string ppf (violation_to_string v)

let class_of = function
  | Hypervisor_crash _ -> 0
  | Privilege_escalation _ -> 1
  | Unauthorized_disclosure _ -> 2
  | Integrity_violation _ -> 3
  | Guest_crash _ -> 4
  | Availability_degradation _ -> 5

let class_index = class_of

let same_class a b =
  let sig_of l = List.sort compare (List.map class_of l) in
  sig_of a = sig_of b

let class_mask vs =
  List.fold_left (fun acc v -> acc lor (1 lsl class_of v)) 0 vs
