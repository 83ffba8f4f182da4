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
   The page-table walks and the M2P inverse check are memoized in a
   {!Scan_memo} anchored at the baseline epoch. Every page table is a
   node of its own, keyed by its frame and by the level, VA prefix and
   write permission it is reached with: its value is the exposure below
   it, its dependencies are its own bytes and the frames whose
   Page_info its leaves consulted, and its children are the tables its
   entries point to. A snapshot re-probes only the tables whose node no
   longer holds. The M2P count is one childless node under [m2p_key]. *)

type scan_cache = int Scan_memo.t

let create_scan_cache () = Scan_memo.create ()
let m2p_key = -1

(* The M2P must stay the inverse of every domain's P2M — a hypervisor
   invariant any auditing monitor can check from outside the guests
   ([Hv.m2p_mismatches]). The count reads the M2P frames and every
   domain's P2M. The hypervisor changes a P2M entry (building,
   destroying, ballooning or exchanging memory) only together with the
   M2P entry of the same frame, so a P2M could have changed only if an
   M2P frame is dirty: the M2P frames are the whole dependency set. *)
let m2p_mismatch_cached cache hv =
  Scan_memo.get cache hv.Hv.mem ~key:m2p_key ~root:0 (fun deps ->
      for i = 0 to Array.length hv.Hv.m2p_mfns - 1 do
        Scan_memo.note_read deps hv.Hv.m2p_mfns.(i)
      done;
      Hv.m2p_mismatches hv)

(* PTE frame number field: bits 12..51, as [Pte.mfn] decodes it. *)
let mfn_bits = (1 lsl 40) - 1

let guest_writable ~hardened va =
  Layout.region_access ~hardened (Layout.region_of_bits va) = Layout.Read_write

(* One page-table walk: the uncached oracle when [memo] is absent. *)
type walk = {
  hv : Hv.t;
  mem : Phys_mem.t;
  hardened : bool;
  memo : scan_cache option;
  touched : (Addr.mfn -> bool) option;  (* absent while no Page_info is touched *)
}

(* A table's key besides its frame: VA prefix (bits 12..47), level and
   write permission, packed into one int. *)
let tag ~level va rw = ((va lsr Addr.page_shift) lsl 3) lor ((level - 1) lsl 1) lor Bool.to_int rw
let tag_level tag = ((tag lsr 1) land 3) + 1
let tag_va tag = (tag lsr 3) lsl Addr.page_shift
let tag_rw tag = tag land 1 = 1

(* Whether [mfn] is typed as a page table; [note] records that the
   verdict consulted its type. *)
let typed_pt w ~note mfn =
  Phys_mem.is_valid_mfn w.mem mfn
  && begin
       (match w.memo with
       | Some m when note -> Scan_memo.note_type (Scan_memo.deps m) mfn
       | Some _ | None -> ());
       Page_info.live_table w.hv.Hv.pages mfn
     end

(* a flagged mapping is evidence read out of this entry *)
let flag w table_mfn index =
  Phys_mem.observe w.mem ~consumer:Provenance.Monitor_scan ~mfn:table_mfn ~off:(8 * index) ~len:8

(* Walk a domain's live page tables exactly like the MMU would, counting
   leaf (and PSE superpage) mappings that grant guest-privilege write
   access to frames currently typed as page tables. The address-space
   layout filter is what lets hardened versions "handle" states that
   older layouts expose. [probe] reads one table, entries decoded in
   place (the present bit probed with a byte load, the VA an int), and
   asks the layout before any Page_info; [note] says its dependencies
   are noted because it may be stored. *)
let rec probe w ~clean ~note level table_mfn va_prefix rw =
  let frame = (Phys_mem.frame_ro w.mem table_mfn :> bytes) in
  let shift = Addr.page_shift + (9 * (level - 1)) in
  let count = ref 0 in
  for index = 0 to Addr.entries_per_table - 1 do
    if Char.code (Bytes.unsafe_get frame (8 * index)) land 1 <> 0 then begin
      let bits = Int64.to_int (Bytes.get_int64_le frame (8 * index)) in
      let va = va_prefix lor (index lsl shift) in
      let rw = rw && bits land 0x2 <> 0 in
      let mfn = (bits lsr Addr.page_shift) land mfn_bits in
      if level = 1 then begin
        if rw && guest_writable ~hardened:w.hardened va && typed_pt w ~note mfn then begin
          flag w table_mfn index;
          incr count
        end
      end
      else if level = 2 && bits land 0x80 <> 0 then begin
        if rw && guest_writable ~hardened:w.hardened va then begin
          let base = mfn land lnot 0x1ff in
          for m = base to base + 511 do
            if typed_pt w ~note m then begin
              flag w table_mfn index;
              incr count
            end
          done
        end
      end
      else count := !count + table w ~clean (level - 1) mfn va rw
    end
  done;
  !count

(* The exposure below table [mfn]: from its node, else a probe. [clean]
   says every table above it is clean: only then may the probe be
   stored, so the memo holds the baseline's tables and nothing a forged
   entry points at. *)
and table w ~clean level mfn va rw =
  match w.memo with
  | None -> if Phys_mem.is_valid_mfn w.mem mfn then probe w ~clean ~note:false level mfn va rw else 0
  | Some memo -> (
      let tag = tag ~level va rw in
      (* only a valid frame has a node *)
      match Scan_memo.find memo ~root:mfn ~tag with
      | n when Scan_memo.tree_holds w.mem ?touched:w.touched n ->
          Scan_memo.keep memo n;
          Scan_memo.value n
      | n -> stale w memo ~clean ~kept:true n
      | exception Not_found ->
          if Phys_mem.is_valid_mfn w.mem mfn then fresh w memo ~clean ~store:true level mfn va rw tag
          else 0)

(* A probe that notes dependencies only when it may be stored, so a
   dirty table's count is returned without building a node. *)
and fresh w memo ~clean ~store level mfn va rw tag =
  let clean = clean && not (Phys_mem.is_dirty w.mem mfn) in
  let store = store && clean in
  Scan_memo.enter memo;
  if store then Scan_memo.note_read (Scan_memo.deps memo) mfn;
  let count = probe w ~clean ~note:store level mfn va rw in
  Scan_memo.leave memo w.mem ?touched:w.touched ~store ~root:mfn ~tag count;
  count

(* The exposure below a stored node whose tree no longer holds. While
   the node itself holds, it is its value corrected for each child's
   change, and the node is [kept] for the running probe; otherwise its
   own bytes or types moved, and a probe counts it (never stored). *)
and stale w memo ~clean ~kept n =
  if Scan_memo.holds w.mem ?touched:w.touched n then begin
    if kept then Scan_memo.keep memo n;
    let kids = Scan_memo.children n in
    let count = ref (Scan_memo.value n) in
    for i = 0 to Array.length kids - 1 do
      let k = Array.unsafe_get kids i in
      if not (Scan_memo.tree_holds w.mem ?touched:w.touched k) then
        count := !count + stale w memo ~clean ~kept:false k - Scan_memo.value k
    done;
    !count
  end
  else
    let tag = Scan_memo.tag n in
    fresh w memo ~clean ~store:false (tag_level tag) (Scan_memo.root n) (tag_va tag) (tag_rw tag)
      tag

let domain_exposure w dom = table w ~clean:true 4 dom.Domain.l4_mfn 0 true

let writable_pt_exposure hv dom =
  domain_exposure
    { hv; mem = hv.Hv.mem; hardened = Hv.hardened hv; memo = None; touched = None }
    dom

(* Whether [s] (non-empty) occurs in [t], without allocating. *)
let contains t s =
  let n = String.length s and m = String.length t in
  let rec matches i j = j = n || (t.[i + j] = s.[j] && matches i (j + 1)) in
  let rec search i = i + n <= m && (matches i 0 || search (i + 1)) in
  n > 0 && search 0

let snapshot ?cache (tb : Testbed.t) =
  let hv = tb.Testbed.hv in
  let kernels = Testbed.kernels tb in
  let secrets = List.map (fun k -> (Kernel.hostname k, Fs.root_files (Kernel.fs k))) kernels in
  let root_artifacts =
    List.concat_map (fun (host, s) -> List.map (fun (path, _) -> (host, path)) s) secrets
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
      (fun (host, s) ->
        List.filter_map
          (fun (path, content) ->
            let leaked =
              List.exists
                (fun c -> c.Netsim.from_host = host && contains (Netsim.transcript c) content)
                connections
            in
            if leaked then Some (Printf.sprintf "%s:%s" host path) else None)
          s)
      secrets
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
  let cached =
    match cache with Some c when Scan_memo.usable c hv.Hv.mem -> Some c | Some _ | None -> None
  in
  let touched =
    if Page_info.any_touched hv.Hv.pages then Some (Page_info.touched hv.Hv.pages) else None
  in
  let w = { hv; mem = hv.Hv.mem; hardened = Hv.hardened hv; memo = cached; touched } in
  let pt_exposure =
    List.map (fun k -> (Kernel.hostname k, domain_exposure w (Kernel.dom k))) kernels
  in
  {
    crashed = Hv.is_crashed hv;
    crash_reason =
      (match hv.Hv.crashed with Some { Hv.reason; _ } -> Some reason | None -> None);
    root_artifacts;
    root_shells;
    disclosed;
    guest_crashes;
    pending_events;
    pt_exposure;
    m2p_mismatches =
      (match cached with Some c -> m2p_mismatch_cached c hv | None -> Hv.m2p_mismatches hv);
    domain_pages =
      List.map
        (fun k ->
          (Kernel.hostname k, Domain.populated_count (Kernel.dom k)))
        kernels;
    sched_stalled = Sched.stalled_slices hv.Hv.sched;
    free_frames = Phys_mem.free_frames hv.Hv.mem;
  }

let subtract l before = List.filter (fun x -> not (List.mem x before)) l

(* The tagged list is the source of truth; [violations] projects the
   tags away, so the historical ordering is preserved exactly. *)
let violations_tagged ~before ~after =
  let crash =
    if after.crashed && not before.crashed then
      [ ("host", Hypervisor_crash (Option.value ~default:"crash" after.crash_reason)) ]
    else []
  in
  let escalations =
    List.map
      (fun (host, path) ->
        (host, Privilege_escalation (Printf.sprintf "root file %s on %s" path host)))
      (subtract after.root_artifacts before.root_artifacts)
    @ List.map
        (fun (victim, remote) ->
          (victim, Privilege_escalation (Printf.sprintf "root shell from %s to %s" victim remote)))
        (subtract after.root_shells before.root_shells)
  in
  let disclosures =
    List.map
      (fun s ->
        let host = match String.index_opt s ':' with
          | Some i -> String.sub s 0 i
          | None -> "host"
        in
        (host, Unauthorized_disclosure s))
      (subtract after.disclosed before.disclosed)
  in
  let guest_crashes =
    List.map (fun h -> (h, Guest_crash h)) (subtract after.guest_crashes before.guest_crashes)
  in
  let storms =
    List.filter_map
      (fun (host, n) ->
        match List.assoc_opt host before.pending_events with
        | Some n0 when n - n0 >= 16 ->
            Some
              ( host,
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
              ( host,
                Integrity_violation
                  (Printf.sprintf "guest-writable page-table mappings on %s (+%d)" host (n - n0))
              )
        | Some _ | None -> None)
      after.pt_exposure
  in
  let m2p =
    if after.m2p_mismatches > before.m2p_mismatches then
      [
        ( "host",
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
              ( host,
                Availability_degradation
                  (Printf.sprintf "%s lost %d pages to balloon pressure" host (n0 - n)) )
        | Some _ | None -> None)
      after.domain_pages
  in
  let stalls =
    if after.sched_stalled > before.sched_stalled then
      [
        ( "host",
          Availability_degradation
            (Printf.sprintf "pCPU stalled for %d scheduler slices" after.sched_stalled) );
      ]
    else []
  in
  let exhaustion =
    if before.free_frames > 0 && after.free_frames * 2 < before.free_frames then
      [
        ( "host",
          Availability_degradation
            (Printf.sprintf "host memory exhaustion (%d -> %d free frames)" before.free_frames
               after.free_frames) );
      ]
    else []
  in
  crash @ escalations @ disclosures @ integrity @ m2p @ guest_crashes @ storms @ memory_loss
  @ stalls @ exhaustion

let violations ~before ~after = List.map snd (violations_tagged ~before ~after)

(* Group by domain, preserving first-appearance order of the domains
   and the within-domain violation order. *)
let by_domain tagged =
  let doms =
    List.fold_left (fun acc (d, _) -> if List.mem d acc then acc else d :: acc) [] tagged
  in
  List.rev_map
    (fun d -> (d, List.filter_map (fun (d', v) -> if d' = d then Some v else None) tagged))
    doms

let violation_to_string = function
  | Hypervisor_crash r -> Printf.sprintf "hypervisor crash (%s)" r
  | Privilege_escalation e -> Printf.sprintf "privilege escalation (%s)" e
  | Unauthorized_disclosure e -> Printf.sprintf "unauthorized disclosure (%s)" e
  | Integrity_violation e -> Printf.sprintf "integrity violation (%s)" e
  | Guest_crash h -> Printf.sprintf "guest crash (%s)" h
  | Availability_degradation e -> Printf.sprintf "availability degradation (%s)" e

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
