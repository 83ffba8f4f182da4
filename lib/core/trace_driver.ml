(** Record/replay driving for campaign trials.

    A {e recording} is one trial run with the trace ring enabled: the
    result row plus the raw ring bytes. Replaying re-drives the
    boundary events of the ring against a new testbed and compares
    final monitor snapshots — the determinism property the trace
    subsystem exists to provide.

    Like {!Campaign}, the driver is a functor over {!Substrate.S}
    (replay delegates event application to {!Substrate.S.apply_event})
    with the toplevel instantiated at {!Substrate_xen}. *)

let hypercall_name = Campaign.hypercall_name

let json_of_telemetry t =
  Printf.sprintf
    "{\"hypercalls\":[%s],\"hypercalls_total\":%d,\"hypercalls_failed\":%d,\"faults\":%d,\
     \"double_faults\":%d,\"flushes\":%d,\"invlpgs\":%d,\"page_type_changes\":%d,\
     \"grant_ops\":%d,\"evtchn_ops\":%d,\"injector_accesses\":%d,\"vmi_scans\":%d,\
     \"vmi_findings\":%d,\"vmi_frames\":%d}"
    (String.concat ","
       (List.map
          (fun (n, c) ->
            Printf.sprintf "{\"number\":%d,\"name\":\"%s\",\"calls\":%d}" n
              (Metrics.json_escape (hypercall_name n))
              c)
          t.Trace.tm_hypercalls))
    (Trace.total_hypercalls t) t.Trace.tm_hypercalls_failed t.Trace.tm_faults
    t.Trace.tm_double_faults t.Trace.tm_flushes t.Trace.tm_invlpgs t.Trace.tm_page_type_changes
    t.Trace.tm_grant_ops t.Trace.tm_evtchn_ops t.Trace.tm_injector_accesses
    t.Trace.tm_vmi_scans t.Trace.tm_vmi_findings t.Trace.tm_vmi_frames

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)

  type recording = {
    rec_use_case : string;
    rec_mode : Campaign.mode;
    rec_version : B.config;
    rec_domains : int option;
    rec_load : Load_mix.t option;
        (** the testbed shape (guest-domain count, background-load mix)
            the trial ran under; replay recreates the same shape so
            multi-domain loaded recordings reproduce byte-for-byte *)
    rec_row : C.result_row;
    rec_bytes : string;
    rec_dropped : int;
    rec_model : Vclock.Cost_model.t;
        (** the cost model the trial charged under; replay re-applies it
            so virtual timestamps reproduce under non-default models *)
    rec_final : B.snapshot;
    rec_prov : string option;
        (** canonical causal graph ({!Provenance.to_json}) when the
            trial ran with provenance attached; replay must reproduce it
            byte for byte *)
    rec_cov : Coverage.map option;
        (** the trial's coverage map when recorded with [~coverage:true];
            replay must reproduce it byte for byte, like vts and the
            causal graph *)
  }

  let prov_export tb = Option.map Provenance.to_json (Phys_mem.provenance (B.mem tb))
  let enable_provenance tb = Phys_mem.enable_provenance (B.mem tb) ~tr:(B.trace tb)

  let record ?domains ?load ?capacity_bytes ?(provenance = false) ?(coverage = false)
      ?prepare ?observer uc mode version =
    let tb = B.create_pooled ?domains ?load version in
    if provenance then enable_provenance tb;
    (* [prepare] runs before the ring opens (and before the trial's
       reset, which returns to this very state): the place to arm VMI
       detector baselines against the known-good testbed. *)
    (match prepare with Some f -> f tb | None -> ());
    let tr = B.trace tb in
    if coverage then Trace.set_coverage tr (Some (Coverage.create ()));
    Trace.enable ?capacity_bytes tr;
    let row = C.run ~tb ?observer uc mode version in
    Trace.disable tr;
    let rec_final = B.snapshot tb in
    {
      rec_use_case = uc.C.uc_name;
      rec_mode = mode;
      rec_version = version;
      rec_domains = domains;
      rec_load = load;
      rec_row = row;
      rec_bytes = Trace.to_bytes tr;
      rec_dropped = Trace.dropped tr;
      rec_model = Vclock.model (Trace.vclock tr);
      rec_final;
      rec_prov = prov_export tb;
      (* the trial already snapshotted the collector (violation axis
         included) into the row — that snapshot is the map replay must
         reproduce *)
      rec_cov = row.C.r_coverage;
    }

  let events r = Trace.records_of_string r.rec_bytes

  type replay_outcome = {
    rp_applied : int;
    rp_skipped : int;
    rp_final : B.snapshot;
    rp_equal : bool;
    rp_vts_equal : bool;
        (** the replay reproduced the recording's virtual timestamps
            byte-for-byte: re-driving the boundary stream re-emitted
            the same (event, vts) sequence, modulo the VMI scans only
            the recording's observer produces *)
    rp_prov : string option;
        (** the replay's own canonical graph (provenance-enabled
            recordings only) *)
    rp_prov_equal : bool;
        (** canonical graphs match; vacuously true for plain
            recordings *)
    rp_cov : Coverage.map option;
        (** the replay's own coverage map (coverage recordings only) *)
    rp_cov_equal : bool;
        (** coverage maps are byte-identical (both absent for
            recordings made without coverage) *)
  }

  (* The records a replay regenerates: everything except detector scans
     (observer-driven, never re-run). Comparing (vts, event) pairs over
     this stream is the virtual-time determinism contract. *)
  let vts_stream recs =
    List.filter_map
      (fun { Trace.vts; event; _ } ->
        match event with
        | Trace.Vmi_scan _ -> None
        | _ -> Some (vts, event))
      recs

  (* A driver of {!Campaign.Make.trial}, like the recording: its act
     re-drives the recorded boundary stream and declares the recorded
     states, so every record the trial's own steps emit (provenance
     edges of snapshot and audit reads included) recurs at its stamp. *)
  let replay r =
    if r.rec_dropped > 0 then
      invalid_arg
        (Printf.sprintf "Trace_driver.replay: recording dropped %d records" r.rec_dropped);
    let tb = B.create_pooled ?domains:r.rec_domains ?load:r.rec_load r.rec_version in
    Vclock.set_model (Trace.vclock (B.trace tb)) r.rec_model;
    if r.rec_prov <> None then enable_provenance tb;
    let tr = B.trace tb in
    if r.rec_cov <> None then Trace.set_coverage tr (Some (Coverage.create ()));
    (* record the replay too: re-driven boundary events re-emit through
       the same instrumentation, so their (vts, event) stream must come
       back byte-identical. Sized so nothing drops (the replayed stream
       is a subset of the recorded one). *)
    Trace.enable ~capacity_bytes:(max (4 * 1024 * 1024) (2 * String.length r.rec_bytes + 64)) tr;
    let applied = ref 0 and skipped = ref 0 in
    let act tb =
      List.iter
        (fun { Trace.event; _ } ->
          match event with
          | Trace.Scn_edge { section; prev; pc } ->
              (* the scenario VM does not run during replay: refeed its
                 edge into the coverage map and re-emit the record, so
                 the replayed stream carries it at the recorded stamp *)
              Option.iter
                (fun cov -> Coverage.note_scn_edge cov ~section ~prev ~pc)
                (Trace.coverage tr);
              if Trace.recording tr && Trace.top_level tr then Trace.emit tr event;
              incr applied
          | _ ->
              if Trace.is_boundary event && B.apply_event tb event then incr applied
              else incr skipped)
        (events r);
      let row = r.rec_row in
      { C.transcript = row.C.r_transcript; states = row.C.r_states; rc = row.C.r_rc }
    in
    let rp_cov = (C.trial tb ~name:r.rec_use_case r.rec_mode r.rec_version act).C.r_coverage in
    Trace.disable tr;
    let replayed = Trace.records_of_string (Trace.to_bytes tr) in
    let rp_final = B.snapshot tb in
    let rp_prov = prov_export tb in
    {
      rp_applied = !applied;
      rp_skipped = !skipped;
      rp_final;
      rp_equal = rp_final = r.rec_final;
      rp_vts_equal = vts_stream replayed = vts_stream (events r);
      rp_prov;
      rp_prov_equal = rp_prov = r.rec_prov;
      rp_cov;
      rp_cov_equal = Option.equal Coverage.equal r.rec_cov rp_cov;
    }

  (* --- reporting ------------------------------------------------------- *)

  let render r =
    let buf = Buffer.create 4096 in
    let recs = events r in
    Buffer.add_string buf
      (Printf.sprintf "trace: %s / %s / %s\n" r.rec_use_case
         (Campaign.mode_to_string r.rec_mode)
         (C.config_label r.rec_version));
    Buffer.add_string buf
      (Printf.sprintf "records: %d (%d dropped)\n" (List.length recs) r.rec_dropped);
    List.iter
      (fun { Trace.seq; vts; event } ->
        Buffer.add_string buf (Format.asprintf "%6d  %10Ldns  %a\n" seq vts Trace.pp_event event))
      recs;
    let t = r.rec_row.C.r_telemetry in
    Buffer.add_string buf
      (Printf.sprintf "telemetry: %d hypercalls (%d failed), %d faults, %d flushes\n"
         (Trace.total_hypercalls t) t.Trace.tm_hypercalls_failed t.Trace.tm_faults
         (t.Trace.tm_flushes + t.Trace.tm_invlpgs));
    List.iter
      (fun (n, count) ->
        Buffer.add_string buf (Printf.sprintf "  %-20s %d\n" (hypercall_name n) count))
      t.Trace.tm_hypercalls;
    (match Trace.detection_latency_ns recs with
    | Some ns -> Buffer.add_string buf (Printf.sprintf "detection latency: %Ld virtual ns\n" ns)
    | None -> ());
    Buffer.add_string buf
      (Printf.sprintf "verdict: state=%b violations=%d\n" r.rec_row.C.r_state
         (List.length r.rec_row.C.r_violations));
    Buffer.contents buf

  let to_json r =
    let recs = events r in
    Printf.sprintf
      "{\"use_case\":\"%s\",\"mode\":\"%s\",\"version\":\"%s\",\"records\":%d,\"dropped\":%d,\
       \"detection_latency_ns\":%s,\"vtime_ns\":%Ld,\"state\":%b,\
       \"violations\":%d,\"telemetry\":%s,\"events\":%s}"
      (Metrics.json_escape r.rec_use_case)
      (Campaign.mode_to_string r.rec_mode)
      (Metrics.json_escape (B.config_to_string r.rec_version))
      (List.length recs) r.rec_dropped
      (match Trace.detection_latency_ns recs with Some d -> Int64.to_string d | None -> "null")
      r.rec_row.C.r_vtime_ns
      r.rec_row.C.r_state
      (List.length r.rec_row.C.r_violations)
      (json_of_telemetry r.rec_row.C.r_telemetry)
      (Trace.json_of_records recs)
end

include Make (Substrate_xen)
