(** Per-violation attribution: from a monitor verdict or a VMI finding
    back to the injecting action that caused it.

    A trial run with provenance attached ({!Trace_driver.Make.record}
    with [~provenance:true]) leaves a causal graph behind: every
    consumer that interpreted tainted bytes (the page walker, PTE
    validation, IDT gate reads, the VMCS/EPT checks, the monitor and
    VMI scans) recorded an edge back to the origin labels of those
    bytes. This module resolves each security violation and each
    detector finding against that graph — which consumer class carries
    the evidence for this violation class, and which origins reached
    it — and reports tainted-but-never-interpreted bytes as {e silent
    corruption} rows.

    Functor over {!Substrate.S} like the rest of the stack; the
    toplevel is the Xen instantiation, [Backends.Kvm_attribution] the
    KVM one. *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Which consumer classes carry the evidence for a violation class. The
   map is a routing hint, not a filter: resolution falls back to every
   read origin (then every live label) when the preferred consumers saw
   no taint, so an unusual propagation path still attributes. *)
let violation_consumers v =
  let open Provenance in
  match v with
  | Monitor.Hypervisor_crash _ -> [ Idt_gate; Pt_walk ]
  | Monitor.Privilege_escalation _ ->
      (* a root shell/file can land via the page-table route or via a
         planted backdoor decoded at vDSO execution (the device-model
         radiation path); forged grants go through the wire-entry check *)
      [ Pt_walk; Page_type_check; Monitor_scan; Vdso_exec; Gnt_check ]
  | Monitor.Unauthorized_disclosure _ -> [ Pt_walk; Monitor_scan; Gnt_check ]
  | Monitor.Integrity_violation msg ->
      if contains msg "M2P" then [ M2p_check; Vmi_view ]
      else if contains msg "VMCS" then [ Vmcs_check ]
      else if contains msg "EPT" then [ Ept_walk ]
      else [ Monitor_scan; Page_type_check; Pt_walk ]
  | Monitor.Guest_crash _ -> [ Idt_gate; Vmcs_check; Ept_walk ]
  | Monitor.Availability_degradation _ -> Provenance.all_consumers

(* Same routing for detector findings, keyed on the detector name. *)
let detector_consumers name =
  let open Provenance in
  if contains name "idt" then [ Idt_gate; Vmi_view ]
  else if contains name "vmcs" then [ Vmcs_check; Vmi_view ]
  else if contains name "ept" then [ Ept_walk; Vmi_view ]
  else if contains name "m2p" then [ M2p_check; Vmi_view ]
  else if contains name "liveness" then [ Idt_gate; Vmcs_check; Ept_walk ]
  else [ Vmi_view; Monitor_scan ]

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)
  module T = Trace_driver.Make (B)

  type row = {
    a_kind : string;  (** ["violation"], ["finding"] or ["silent"] *)
    a_what : string;  (** the violation / finding / silent-label text *)
    a_via : string list;  (** consumer classes consulted, in order *)
    a_origins : string list;  (** resolved origin labels, sorted *)
  }

  type report = {
    ar_use_case : string;
    ar_mode : Campaign.mode;
    ar_config : B.config;
    ar_rows : row list;
    ar_edges : int;  (** interpretation edges the trial produced *)
    ar_tainted_bytes : int;  (** taint live at end of trial *)
    ar_graph_json : string;  (** {!Provenance.to_json} of the graph *)
    ar_graph_dot : string;  (** {!Provenance.to_dot} of the graph *)
  }

  let resolve p consumers =
    let via = Provenance.origins_for p (fun c -> List.mem c consumers) in
    let chosen =
      if via <> [] then via
      else
        let read = Provenance.origins_read p in
        if read <> [] then read
        else
          List.sort_uniq compare
            (List.filter_map
               (fun (_, o, bytes, _) -> if bytes > 0 then Some o else None)
               (Provenance.labels p))
    in
    List.map Provenance.origin_to_string chosen

  let attribute ?domains ?load ?registry uc mode config =
    let detectors = B.detectors () in
    let sched = Vmi.Scheduler.create ?registry detectors in
    let tbr = ref None in
    let recording =
      T.record ?domains ?load ~provenance:true
        ~prepare:(fun tb ->
          tbr := Some tb;
          Vmi.Scheduler.arm sched tb)
        ~observer:(fun tb -> Vmi.Scheduler.step sched (B.trace tb) tb)
        uc mode config
    in
    let tb = match !tbr with Some tb -> tb | None -> assert false in
    let p = match Phys_mem.provenance (B.mem tb) with Some p -> p | None -> assert false in
    (match registry with Some reg -> Provenance.publish reg p | None -> ());
    let violation_rows =
      List.map
        (fun v ->
          let cs = violation_consumers v in
          {
            a_kind = "violation";
            a_what = Monitor.violation_to_string v;
            a_via = List.map Provenance.consumer_name cs;
            a_origins = resolve p cs;
          })
        recording.T.rec_row.C.r_violations
    in
    let finding_rows =
      List.concat_map
        (fun (det, findings) ->
          let cs = detector_consumers det in
          List.map
            (fun f ->
              {
                a_kind = "finding";
                a_what = Printf.sprintf "%s: %s" det f;
                a_via = List.map Provenance.consumer_name cs;
                a_origins = resolve p cs;
              })
            findings)
        (Vmi.Scheduler.findings sched)
    in
    let silent_rows =
      List.map
        (fun (o, bytes) ->
          {
            a_kind = "silent";
            a_what = Printf.sprintf "%d tainted byte(s) never interpreted" bytes;
            a_via = [];
            a_origins = [ Provenance.origin_to_string o ];
          })
        (Provenance.silent p)
    in
    {
      ar_use_case = uc.C.uc_name;
      ar_mode = mode;
      ar_config = config;
      ar_rows = violation_rows @ finding_rows @ silent_rows;
      ar_edges = Provenance.edge_count p;
      ar_tainted_bytes = Provenance.tainted_bytes p;
      ar_graph_json = Provenance.to_json p;
      ar_graph_dot = Provenance.to_dot p;
    }

  (* The gate property: every violation and finding names at least one
     origin. Silent rows are informational (corruption that nothing
     interpreted cannot be attributed to a consumer by definition). *)
  let complete r =
    List.for_all (fun row -> row.a_kind = "silent" || row.a_origins <> []) r.ar_rows

  let attribute_all ?domains ?load ?registry ucs mode config =
    List.map (fun uc -> attribute ?domains ?load ?registry uc mode config) ucs

  let table reports =
    let body =
      List.concat_map
        (fun r ->
          match r.ar_rows with
          | [] -> [ [ r.ar_use_case; B.config_to_string r.ar_config; "-"; "(no rows)"; "-" ] ]
          | rows ->
              List.map
                (fun row ->
                  [
                    r.ar_use_case;
                    B.config_to_string r.ar_config;
                    row.a_kind;
                    row.a_what;
                    (match row.a_origins with
                    | [] -> "(none)"
                    | os -> String.concat ", " os);
                  ])
                rows)
        reports
    in
    Report.table
      ~title:"Attribution: use case x violation/finding -> originating action"
      ~header:[ "Use Case"; B.config_heading; "Kind"; "Evidence"; "Origin(s)" ]
      body

  let to_json reports =
    let one r =
      let rows =
        String.concat ","
          (List.map
             (fun row ->
               Printf.sprintf
                 "{\"kind\":\"%s\",\"what\":\"%s\",\"via\":[%s],\"origins\":[%s]}"
                 (Metrics.json_escape row.a_kind) (Metrics.json_escape row.a_what)
                 (String.concat ","
                    (List.map (fun c -> Printf.sprintf "\"%s\"" (Metrics.json_escape c)) row.a_via))
                 (String.concat ","
                    (List.map (fun o -> Printf.sprintf "\"%s\"" (Metrics.json_escape o)) row.a_origins)))
             r.ar_rows)
      in
      Printf.sprintf
        "{\"use_case\":\"%s\",\"mode\":\"%s\",\"config\":\"%s\",\"backend\":\"%s\",\
         \"edges\":%d,\"tainted_bytes\":%d,\"complete\":%b,\"rows\":[%s],\"graph\":%s}"
        (Metrics.json_escape r.ar_use_case)
        (Campaign.mode_to_string r.ar_mode)
        (Metrics.json_escape (B.config_to_string r.ar_config))
        (Metrics.json_escape B.name) r.ar_edges r.ar_tainted_bytes (complete r) rows r.ar_graph_json
    in
    "[" ^ String.concat ",\n " (List.map one reports) ^ "]"

  (* One DOT digraph per report, concatenated: Graphviz renders each as
     its own page; CI uploads the bundle as an artifact. *)
  let to_dot reports =
    String.concat "\n" (List.map (fun r -> r.ar_graph_dot) reports)
end

include Make (Substrate_xen)
