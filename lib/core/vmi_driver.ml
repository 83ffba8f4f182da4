(** Driving VMI detectors against campaign trials: coverage and
    detection latency (which detectors catch which erroneous states,
    and how many virtual ns after injection).

    A functor over {!Substrate.S} like the rest of the stack — a trial
    arms the backend's detector suite ({!Substrate.S.detectors}), steps
    it at every observer point of the trial, and correlates detector
    firings against the injector's trace records. The toplevel is the
    Xen instantiation. *)

(* The latency origin: where the intrusion entered the machine. In
   injection mode that is the injector's first raw access; a real
   exploit has no injector records, so its first boundary crossing
   stands in. *)
let inject_record mode records =
  let first p = List.find_opt p records in
  match mode with
  | Campaign.Injection ->
      first (fun r ->
          match r.Trace.event with Trace.Injector_access _ -> true | _ -> false)
  | Campaign.Real_exploit -> first (fun r -> Trace.is_boundary r.Trace.event)

(* Strip the VMI contribution out of a telemetry delta so detector-on
   and detector-off trials compare equal everywhere else. *)
let telemetry_sans_vmi (t : Trace.telemetry) =
  { t with Trace.tm_vmi_scans = 0; tm_vmi_findings = 0; tm_vmi_frames = 0 }

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)
  module T = Trace_driver.Make (B)

  type trial = {
    t_recording : T.recording;
    t_inject_seq : int option;
    t_inject_vts : int64 option;
    t_first_fire : (string * int) list;
    t_latency_ns : (string * int64 option) list;
        (** injection to first fire on the virtual clock, in simulated ns *)
    t_findings : (string * string list) list;
    t_scans : int;
    t_frames_read : int;
    t_scan_cost_ns : int64;
  }

  let run_trial ?domains ?load ?capacity_bytes ?every_ns ?registry uc mode version =
    let detectors = B.detectors () in
    let sched = Vmi.Scheduler.create ?every_ns ?registry detectors in
    let recording =
      T.record ?domains ?load ?capacity_bytes
        ~prepare:(fun tb -> Vmi.Scheduler.arm sched tb)
        ~observer:(fun tb -> Vmi.Scheduler.step sched (B.trace tb) tb)
        uc mode version
    in
    let records = T.events recording in
    (* A wrapped ring may have evicted the injection record; the
       surviving records would then yield a bogus (too-late) origin and
       a silently wrong latency. No origin -> no latency claims. *)
    let inject =
      if recording.T.rec_dropped > 0 then None else inject_record mode records
    in
    let t_inject_seq = Option.map (fun r -> r.Trace.seq) inject in
    let t_inject_vts = Option.map (fun r -> r.Trace.vts) inject in
    let first_fire = Vmi.Scheduler.first_fire sched in
    let first_fire_vts = Vmi.Scheduler.first_fire_vts sched in
    (* The latency is gated on a seq comparison: the clock can stand
       still across events (zero-cost records), so [fire > inj] on seq
       is the authoritative "fired after injection" test. *)
    let latency_ns_of name =
      match (List.assoc_opt name first_fire, t_inject_seq, t_inject_vts) with
      | Some fire, Some inj, Some ivts when fire > inj ->
          Option.map
            (fun fvts -> Int64.sub fvts ivts)
            (List.assoc_opt name first_fire_vts)
      | _ -> None
    in
    {
      t_recording = recording;
      t_inject_seq;
      t_inject_vts;
      t_first_fire = first_fire;
      t_latency_ns =
        List.map (fun d -> (d.Vmi.Detector.name, latency_ns_of d.Vmi.Detector.name)) detectors;
      t_findings = Vmi.Scheduler.findings sched;
      t_scans = Vmi.Scheduler.scans_run sched;
      t_frames_read = Vmi.Scheduler.frames_read sched;
      t_scan_cost_ns = Vmi.Scheduler.scan_cost_ns sched;
    }

  let covered t = List.exists (fun (_, l) -> l <> None) t.t_latency_ns

  let best_latency_ns t =
    List.fold_left
      (fun best (_, l) ->
        match (best, l) with
        | None, l -> l
        | Some b, Some l -> Some (if Int64.compare l b < 0 then l else b)
        | Some b, None -> Some b)
      None t.t_latency_ns

  let coverage ?domains ?load ?every_ns ?registry ucs mode version =
    List.map (fun uc -> run_trial ?domains ?load ?every_ns ?registry uc mode version) ucs

  let matrix_table trials =
    let detectors =
      match trials with [] -> [] | t :: _ -> List.map fst t.t_latency_ns
    in
    let header =
      "Detector" :: List.map (fun t -> t.t_recording.T.rec_use_case) trials
    in
    let rows =
      List.map
        (fun d ->
          d
          :: List.map
               (fun t ->
                 match List.assoc_opt d t.t_latency_ns with
                 | Some (Some ns) -> Printf.sprintf "%Ldns" ns
                 | _ -> "-")
               trials)
        detectors
    in
    Report.table
      ~title:"Detector x erroneous-state coverage (detection latency in virtual ns)"
      ~header rows

  let non_vmi_events recording =
    List.filter_map
      (fun r ->
        match r.Trace.event with Trace.Vmi_scan _ -> None | e -> Some e)
      (T.events recording)

  let side_effect_free uc mode version =
    let plain = T.record uc mode version in
    let t = run_trial uc mode version in
    let watched = t.t_recording in
    let row_equal =
      let a = plain.T.rec_row and b = watched.T.rec_row in
      a.C.r_audits = b.C.r_audits
      && a.C.r_violations = b.C.r_violations
      && a.C.r_transcript = b.C.r_transcript
      && a.C.r_rc = b.C.r_rc
      && telemetry_sans_vmi a.C.r_telemetry = telemetry_sans_vmi b.C.r_telemetry
    in
    plain.T.rec_final = watched.T.rec_final
    && row_equal
    && non_vmi_events plain = non_vmi_events watched

  let to_json trials =
    let one t =
      let lat_ns =
        String.concat ","
          (List.map
             (fun (d, l) ->
               Printf.sprintf "\"%s\":%s" (Metrics.json_escape d)
                 (match l with Some l -> Int64.to_string l | None -> "null"))
             t.t_latency_ns)
      in
      Printf.sprintf
        "{\"use_case\":\"%s\",\"mode\":\"%s\",\"version\":\"%s\",\"inject_seq\":%s,\
         \"inject_vts\":%s,\"scans\":%d,\"frames_read\":%d,\"scan_cost_ns\":%Ld,\
         \"covered\":%b,\"latency_ns\":{%s}}"
        (Metrics.json_escape t.t_recording.T.rec_use_case)
        (Campaign.mode_to_string t.t_recording.T.rec_mode)
        (Metrics.json_escape (B.config_to_string t.t_recording.T.rec_version))
        (match t.t_inject_seq with Some s -> string_of_int s | None -> "null")
        (match t.t_inject_vts with Some s -> Int64.to_string s | None -> "null")
        t.t_scans t.t_frames_read t.t_scan_cost_ns (covered t) lat_ns
    in
    "[" ^ String.concat ",\n " (List.map one trials) ^ "]"
end

include Make (Substrate_xen)
