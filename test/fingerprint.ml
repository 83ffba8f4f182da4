(* The row fingerprint the golden fixtures were cut with. tools/goldgen
   compiles this same file (dune copy_files), so the generator and the
   tests print rows with one function: any drift in row content or
   formatting shows up as a diff. *)

open Ii_core
open Ii_trace

module Make (B : Substrate.S) = struct
  module C = Campaign.Make (B)

  (* every [Trace.telemetry] field *)
  let telemetry (t : Trace.telemetry) =
    Printf.sprintf "%s|f%d|F%d|d%d|fl%d|i%d|p%d|g%d|e%d|inj%d|vs%d|vf%d|vfr%d"
      (String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%d:%d" n c) t.Trace.tm_hypercalls))
      t.Trace.tm_hypercalls_failed t.Trace.tm_faults t.Trace.tm_double_faults t.Trace.tm_flushes
      t.Trace.tm_invlpgs t.Trace.tm_page_type_changes t.Trace.tm_grant_ops t.Trace.tm_evtchn_ops
      t.Trace.tm_injector_accesses t.Trace.tm_vmi_scans t.Trace.tm_vmi_findings t.Trace.tm_vmi_frames

  let row (r : C.result_row) =
    String.concat "\n"
      ([ Printf.sprintf "use_case=%s" r.C.r_use_case;
         Printf.sprintf "version=%s" (B.config_to_string r.C.r_version);
         Printf.sprintf "mode=%s" (Campaign.mode_to_string r.C.r_mode);
         Printf.sprintf "state=%b" r.C.r_state;
         Printf.sprintf "rc=%s"
           (match r.C.r_rc with Some rc -> string_of_int rc | None -> "-") ]
      @ List.concat_map
          (fun a -> List.map (fun e -> "evidence=" ^ e) a.Erroneous_state.evidence)
          r.C.r_audits
      @ List.map
          (fun v -> "violation=" ^ Monitor.violation_to_string v)
          r.C.r_violations
      @ List.map (fun l -> "transcript=" ^ l) r.C.r_transcript
      @ [ "telemetry=" ^ telemetry r.C.r_telemetry ])

  let config_of_string s = List.find (fun c -> B.config_to_string c = s) B.configs
end

module Xen = Make (Substrate_xen)
module Kvm = Make (Ii_backends.Backend_kvm)
