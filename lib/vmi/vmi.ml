(* Out-of-band introspection: semantic views rebuilt from raw frame
   bytes via read-only accessors, detectors on top, and a periodic scan
   scheduler. See vmi.mli for the contract. *)

let scan_buckets = [ 4.; 16.; 64.; 256.; 1024. ]

(* --- views ------------------------------------------------------------ *)

module View = struct
  let frame_hash hv mfn =
    Phys_mem.observe hv.Hv.mem ~consumer:Provenance.Vmi_view ~mfn ~off:0 ~len:Addr.page_size;
    Phys_mem.frame_hash hv.Hv.mem mfn

  let idt_gates hv =
    let rec go v acc =
      if v < 0 then acc
      else
        let g = Idt.read_gate hv.Hv.mem hv.Hv.idt_mfn v in
        go (v - 1) (if g.Idt.gate_present then (v, g) :: acc else acc)
    in
    go 255 []

  type pt_graph = {
    g_nodes : (Addr.mfn * int) list;
    g_leaves : (Addr.vaddr * Addr.mfn * bool) list;
    g_frames_read : int;
  }

  (* Shift of a walk index at each table level; composing them rebuilds
     the virtual address the hardware would decode. *)
  let level_shift = function 4 -> 39 | 3 -> 30 | 2 -> 21 | _ -> 12

  let pt_graph hv dom =
    let mem = hv.Hv.mem in
    let nodes = Hashtbl.create 32 in
    let leaves = ref [] in
    let frames_read = ref 0 in
    (* The walk mirrors the hardware decode: level strictly decreases,
       so even a self-mapped root (XSA-182) terminates in <= 4 levels.
       [va] accumulates the index bits chosen so far; [rw] is the AND of
       the Rw bits along the path (x86 semantics: a mapping is writable
       only if every level permits it). *)
    let rec walk mfn level va rw =
      incr frames_read;
      Phys_mem.observe mem ~consumer:Provenance.Vmi_view ~mfn ~off:0 ~len:Addr.page_size;
      if not (Hashtbl.mem nodes mfn) then Hashtbl.replace nodes mfn level;
      Frame.iter_present (Phys_mem.frame_ro mem mfn) (fun i e ->
          let target = Pte.mfn e in
          let va' = Int64.logor va (Int64.shift_left (Int64.of_int i) (level_shift level)) in
          let rw' = rw && Pte.test Pte.Rw e in
          if level = 1 then begin
            if Phys_mem.is_valid_mfn mem target then
              leaves := (Addr.canonical va', target, rw') :: !leaves
          end
          else if level = 2 && Pte.test Pte.Pse e then begin
            (* a 2 MiB superpage: one 4 KiB leaf per covered frame,
               aliasing whatever real frames sit in that naturally
               aligned 512-frame window (the XSA-148 signature) *)
            let base = target land lnot (Addr.entries_per_table - 1) in
            for j = 0 to Addr.entries_per_table - 1 do
              if Phys_mem.is_valid_mfn mem (base + j) then
                leaves :=
                  ( Addr.canonical (Int64.logor va' (Int64.shift_left (Int64.of_int j) 12)),
                    base + j,
                    rw' )
                  :: !leaves
            done
          end
          else if Phys_mem.is_valid_mfn mem target then walk target (level - 1) va' rw')
    in
    if Phys_mem.is_valid_mfn mem dom.Domain.l4_mfn then
      walk dom.Domain.l4_mfn 4 0L true;
    {
      g_nodes = Hashtbl.fold (fun m l acc -> (m, l) :: acc) nodes [];
      g_leaves = !leaves;
      g_frames_read = !frames_read;
    }

  let exposure_count hv g =
    let mem = hv.Hv.mem in
    let hardened = Hv.hardened hv in
    let is_node = Hashtbl.create 32 in
    List.iter (fun (m, _) -> Hashtbl.replace is_node m ()) g.g_nodes;
    let sensitive target =
      Hashtbl.mem is_node target
      || Phys_mem.owner mem target = Phys_mem.Xen
      || Page_info.live_table hv.Hv.pages target
    in
    List.fold_left
      (fun acc (va, target, rw) ->
        if
          rw
          && Layout.guest_access ~hardened (Addr.canonical va) = Layout.Read_write
          && sensitive target
        then acc + 1
        else acc)
      0 g.g_leaves

  let m2p_raw hv mfn =
    let frame = Hv.m2p_frame_for hv mfn and off = Hv.m2p_offset mfn in
    Phys_mem.observe hv.Hv.mem ~consumer:Provenance.Vmi_view ~mfn:frame ~off ~len:8;
    Frame.get_u64 (Phys_mem.frame_ro hv.Hv.mem frame) off

  let m2p_mismatches hv =
    List.concat_map
      (fun dom ->
        List.filter_map
          (fun pfn ->
            match Domain.mfn_of_pfn dom pfn with
            | None -> None
            | Some mfn ->
                if m2p_raw hv mfn = Int64.of_int pfn then None
                else Some (dom.Domain.id, mfn, pfn))
          (Domain.populated_pfns dom))
      hv.Hv.domains
end

(* --- detectors -------------------------------------------------------- *)

module Detector = struct
  type scan_result = { findings : string list; frames_read : int }

  (* Parametric in the machine state it observes: Xen detectors scan an
     [Hv.t], other backends supply their own state type and adapt
     reusable detectors with [contramap]. *)
  type 'st t = { name : string; arm : 'st -> unit; scan : 'st -> scan_result }

  let contramap f d = { name = d.name; arm = (fun st -> d.arm (f st)); scan = (fun st -> d.scan (f st)) }

  let critical_frames hv = hv.Hv.idt_mfn :: hv.Hv.text_mfn :: Array.to_list hv.Hv.m2p_mfns

  let integrity_hasher () =
    let baseline = ref [] in
    {
      name = "integrity";
      arm =
        (fun hv ->
          baseline := List.map (fun m -> (m, View.frame_hash hv m)) (critical_frames hv));
      scan =
        (fun hv ->
          let findings =
            List.filter_map
              (fun (m, h0) ->
                if View.frame_hash hv m = h0 then None
                else Some (Printf.sprintf "critical frame %d hash diverged from baseline" m))
              !baseline
          in
          { findings; frames_read = List.length !baseline });
    }

  let idt_gate_auditor () =
    {
      name = "idt-gates";
      arm = (fun _ -> ());
      scan =
        (fun hv ->
          let findings =
            List.filter_map
              (fun (v, g) ->
                match Cpu.handler_name hv.Hv.cpu g.Idt.handler with
                | Some _ -> None
                | None ->
                    Some
                      (Printf.sprintf "vector %d gate points at unknown handler %016Lx" v
                         g.Idt.handler))
              (View.idt_gates hv)
          in
          { findings; frames_read = 1 });
    }

  let pt_exposure_scanner () =
    let baseline : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let scan_domains hv f =
      List.fold_left
        (fun frames dom ->
          let g = View.pt_graph hv dom in
          f dom (View.exposure_count hv g);
          frames + g.View.g_frames_read)
        0 hv.Hv.domains
    in
    {
      name = "pt-exposure";
      arm =
        (fun hv ->
          Hashtbl.reset baseline;
          ignore
            (scan_domains hv (fun dom n -> Hashtbl.replace baseline dom.Domain.id n)));
      scan =
        (fun hv ->
          let findings = ref [] in
          let frames =
            scan_domains hv (fun dom n ->
                let base =
                  Option.value ~default:0 (Hashtbl.find_opt baseline dom.Domain.id)
                in
                if n > base then
                  findings :=
                    Printf.sprintf
                      "dom%d page tables expose %d writable window(s) onto sensitive frames (baseline %d)"
                      dom.Domain.id n base
                    :: !findings)
          in
          { findings = List.rev !findings; frames_read = frames });
    }

  let m2p_inverse_checker () =
    let baseline = ref 0 in
    {
      name = "m2p-inverse";
      arm = (fun hv -> baseline := List.length (View.m2p_mismatches hv));
      scan =
        (fun hv ->
          let mismatches = View.m2p_mismatches hv in
          let findings =
            if List.length mismatches > !baseline then
              List.map
                (fun (d, mfn, pfn) ->
                  Printf.sprintf "dom%d p2m says pfn %d -> mfn %d but m2p disagrees" d pfn
                    mfn)
                mismatches
            else []
          in
          { findings; frames_read = Array.length hv.Hv.m2p_mfns });
    }

  let liveness () =
    let base_stalls = ref 0 in
    let base_hung = ref 0 in
    let base_dom_crashed = ref [] in
    {
      name = "liveness";
      arm =
        (fun hv ->
          base_stalls := Sched.stalled_slices hv.Hv.sched;
          base_hung := List.length (Sched.hung_vcpus hv.Hv.sched);
          base_dom_crashed :=
            List.filter_map
              (fun d -> if d.Domain.dom_crashed then Some d.Domain.id else None)
              hv.Hv.domains);
      scan =
        (fun hv ->
          let findings = ref [] in
          (match hv.Hv.crashed with
          | Some c -> findings := Printf.sprintf "hypervisor crashed: %s" c.Hv.reason :: !findings
          | None -> ());
          if Sched.stalled_slices hv.Hv.sched > !base_stalls then
            findings :=
              Printf.sprintf "scheduler stalled for %d consecutive slice(s)"
                (Sched.stalled_slices hv.Hv.sched)
              :: !findings;
          let hung = Sched.hung_vcpus hv.Hv.sched in
          if List.length hung > !base_hung then
            List.iter
              (fun (d, why) ->
                findings := Printf.sprintf "dom%d vcpu hung in hypervisor: %s" d why :: !findings)
              hung;
          List.iter
            (fun d ->
              if d.Domain.dom_crashed && not (List.mem d.Domain.id !base_dom_crashed) then
                findings := Printf.sprintf "dom%d crashed" d.Domain.id :: !findings)
            hv.Hv.domains;
          { findings = List.rev !findings; frames_read = 0 });
    }

  let all () =
    [
      integrity_hasher ();
      pt_exposure_scanner ();
      idt_gate_auditor ();
      m2p_inverse_checker ();
      liveness ();
    ]
end

(* --- scan scheduler --------------------------------------------------- *)

module Scheduler = struct
  type 'st t = {
    detectors : 'st Detector.t list;
    every_ns : int64 option;  (* rate-based mode: scan every N virtual ns *)
    registry : Metrics.registry option;
    mutable deadline : int64 option;  (* next virtual-time scan deadline *)
    mutable scans_run : int;
    mutable frames_read : int;
    mutable scan_cost_ns : int64;  (* virtual cost of scans, never charged to the machine *)
    mutable first_fire : (string * int) list;  (* insertion = firing order *)
    mutable first_fire_vts : (string * int64) list;
    mutable found : (string * string list) list;
  }

  let create ?every_ns ?registry detectors =
    (match every_ns with
    | Some ns when Int64.compare ns 1L < 0 ->
        invalid_arg "Vmi.Scheduler.create: every_ns must be >= 1"
    | _ -> ());
    {
      detectors;
      every_ns;
      registry;
      deadline = None;
      scans_run = 0;
      frames_read = 0;
      scan_cost_ns = 0L;
      first_fire = [];
      first_fire_vts = [];
      found = [];
    }

  let arm t st = List.iter (fun d -> d.Detector.arm st) t.detectors

  let publish t detector ~findings ~frames =
    match t.registry with
    | None -> ()
    | Some reg ->
        let labels = [ ("detector", detector) ] in
        Metrics.inc
          (Metrics.counter reg ~help:"VMI detector scans" ~labels "vmi_scans_total");
        Metrics.inc ~by:findings
          (Metrics.counter reg ~help:"VMI detector findings" ~labels "vmi_findings_total");
        Metrics.observe
          (Metrics.histogram reg ~help:"Frames read per VMI scan" ~buckets:scan_buckets
             "vmi_scan_frames")
          (float_of_int frames)

  let scan_now t tr st =
    List.iter
      (fun d ->
        let r = d.Detector.scan st in
        let n = List.length r.Detector.findings in
        (* capture the sequence number and virtual timestamp this scan's
           own record will get: they sit after every machine event the
           detector could have reacted to: the seq orders the firing
           against the injection, the vts gives the latency *)
        let s = Trace.seq tr in
        let vts = Trace.vts tr in
        if Trace.recording tr then
          Trace.emit tr
            (Trace.Vmi_scan
               { detector = d.Detector.name; findings = n; frames = r.Detector.frames_read });
        Trace.note_vmi_scan tr ~findings:n ~frames:r.Detector.frames_read;
        t.scans_run <- t.scans_run + 1;
        t.frames_read <- t.frames_read + r.Detector.frames_read;
        (* scans are out-of-band observers: their cost accrues on the
           scheduler's own tally, never the machine's virtual clock *)
        t.scan_cost_ns <-
          Int64.add t.scan_cost_ns
            (Int64.mul
               (Int64.of_int r.Detector.frames_read)
               (Vclock.cost (Vclock.model (Trace.vclock tr)) Vclock.Vmi_scan_frame));
        if n > 0 then begin
          if not (List.mem_assoc d.Detector.name t.first_fire) then begin
            t.first_fire <- t.first_fire @ [ (d.Detector.name, s) ];
            t.first_fire_vts <- t.first_fire_vts @ [ (d.Detector.name, vts) ]
          end;
          let prev =
            Option.value ~default:[] (List.assoc_opt d.Detector.name t.found)
          in
          let fresh = List.filter (fun f -> not (List.mem f prev)) r.Detector.findings in
          if fresh <> [] then
            t.found <-
              List.remove_assoc d.Detector.name t.found @ [ (d.Detector.name, prev @ fresh) ]
        end;
        publish t d.Detector.name ~findings:n ~frames:r.Detector.frames_read)
      t.detectors

  let step t tr st =
    match t.every_ns with
    | Some ns -> (
        (* rate-based: scan when the machine's virtual clock has crossed
           the deadline; the first step always scans and arms it. Purely
           a function of the deterministic clock, so sharded and pooled
           runs fire at identical points. *)
        let now = Trace.vts tr in
        match t.deadline with
        | None ->
            scan_now t tr st;
            t.deadline <- Some (Int64.add now ns)
        | Some d when Int64.compare now d >= 0 ->
            scan_now t tr st;
            t.deadline <- Some (Int64.add now ns)
        | Some _ -> ())
    | None -> scan_now t tr st

  let scans_run t = t.scans_run
  let frames_read t = t.frames_read
  let scan_cost_ns t = t.scan_cost_ns
  let first_fire t = t.first_fire
  let first_fire_vts t = t.first_fire_vts
  let findings t = t.found
end
