(* What the subcommands share: the arguments every backend-aware command
   takes, defined once, and [Drivers], the engine functors applied to
   one registered backend. A command picks its backend once, as a value
   from the registry, and has one body generic over it. *)

open Cmdliner
module All = Ii_exploits.All_exploits

let backend_arg =
  let parse s =
    match All.find_backend s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown backend %S; available: %s" s
               (String.concat ", " (List.map All.backend_name All.backends))))
  in
  let pp ppf b = Format.pp_print_string ppf (All.backend_name b) in
  let doc =
    Printf.sprintf
      "Hypervisor backend to drive (%s); defaults to %s, or for $(b,scenario run) to the \
       scenario's header."
      (String.concat "|" (List.map All.backend_name All.backends))
      (All.backend_name All.xen)
  in
  Arg.(value & opt (some (conv (parse, pp))) None & info [ "b"; "backend" ] ~docv:"BACKEND" ~doc)

let backend = Term.(const (Option.value ~default:All.xen) $ backend_arg)
let modes = [ ("exploit", Campaign.Real_exploit); ("injection", Campaign.Injection) ]

let mode_arg =
  Arg.(value & opt (enum modes) Campaign.Injection & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection")

(* scenario run: one mode, or both in campaign order *)
let modes_arg =
  let both = List.map snd modes in
  Arg.(
    value
    & opt (enum (List.map (fun (s, m) -> (s, [ m ])) modes @ [ ("both", both) ])) both
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"exploit|injection|both.")

(* -x, documented over the given backends *)
let config_opt backends =
  let doc =
    Printf.sprintf "Backend configuration (%s); defaults to the backend's RQ1 configuration."
      (String.concat "; "
         (List.map
            (fun (module K : All.BACKEND) ->
              Printf.sprintf "%s %s" K.config_noun
                (String.concat ", " (List.map K.Ops.B.config_to_string K.Ops.B.configs)))
            backends))
  in
  Arg.(value & opt (some string) None & info [ "x"; "xen-version" ] ~docv:"VER" ~doc)

let config_arg = config_opt All.backends

let workers_arg =
  let doc =
    "Worker domains for sharded runs: a positive integer, or $(b,auto) to size to the \
     machine (never oversubscribes)."
  in
  let parse s = Result.map_error (fun e -> `Msg e) (Shard.workers_of_string s) in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) 1 & info [ "w"; "workers" ] ~docv:"N|auto" ~doc)

(* An integer flag with a floor: a value below it (or not an integer)
   is a usage error naming the flag, not an exception from deep in a
   run. *)
let floored of_string pp floor =
  let parse s =
    match of_string s with
    | Some n when compare n floor >= 0 -> Ok n
    | _ -> Error (`Msg (Format.asprintf "invalid value '%s', expected an integer >= %a" s pp floor))
  in
  Arg.conv (parse, pp)

let at_least = floored int_of_string_opt Format.pp_print_int
let at_least64 = floored Int64.of_string_opt (fun ppf n -> Format.fprintf ppf "%Ld" n)

let domains_arg =
  let doc = "Concurrent guest domains on each testbed (>= 2: victim + attacker)." in
  Arg.(value & opt (at_least 2) 2 & info [ "domains" ] ~docv:"N" ~doc)

let load_arg =
  let parse s =
    match Load_mix.of_string s with
    | Some load -> Ok load
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown load mix %S; available: %s" s
               (String.concat ", " (List.map Load_mix.to_string Load_mix.all))))
  in
  let pp ppf l = Format.pp_print_string ppf (Load_mix.to_string l) in
  let doc =
    "Deterministic background workload every guest domain runs while trials execute \
     (none|default|heavy)."
  in
  Arg.(value & opt (conv (parse, pp)) Load_mix.none & info [ "load" ] ~docv:"MIX" ~doc)

let verbose_arg =
  let doc = "Print transcripts and console output." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

module Drivers (K : All.BACKEND) = struct
  module B = K.Ops.B
  module C = Campaign.Make (K.Ops.B)
  module T = Trace_driver.Make (K.Ops.B)
  module V = Vmi_driver.Make (K.Ops.B)
  module A = Attribution.Make (K.Ops.B)
  module S = Scn_vm.Make (K.Ops)

  let config = function
    | None -> Ok B.rq1_config
    | Some s -> (
        match B.config_of_string s with
        | Some c -> Ok c
        | None ->
            Error
              (Printf.sprintf "unknown %s %S; available: %s" K.config_noun s
                 (String.concat ", " (List.map B.config_to_string B.configs))))

  (* A use case by name, or else by XSA id. *)
  let use_case key =
    let by field = List.find_opt (fun uc -> field uc = key) K.use_cases in
    match by (fun uc -> uc.C.uc_name) with
    | Some uc -> Ok uc
    | None -> (
        match by (fun uc -> uc.C.uc_xsa) with
        | Some uc -> Ok uc
        | None ->
            Error
              (Printf.sprintf "unknown use case %S; available: %s" key
                 (String.concat ", " (List.map (fun uc -> uc.C.uc_name) K.use_cases))))

  let print_row ~verbose ~evidence (r : C.result_row) =
    Printf.printf "use case:        %s\n" r.C.r_use_case;
    Printf.printf "%-17s%s\n" (K.config_noun ^ ":") (B.config_to_string r.C.r_version);
    Printf.printf "mode:            %s\n" (Campaign.mode_to_string r.C.r_mode);
    Option.iter (Printf.printf "return code:     %d\n") r.C.r_rc;
    Printf.printf "erroneous state: %s\n"
      (if r.C.r_state then "PRESENT (audited)" else "absent");
    (match r.C.r_violations with
    | [] -> Printf.printf "security:        no violation (the system handled the state)\n"
    | vs ->
        Printf.printf "security violations:\n";
        List.iter (fun v -> Printf.printf "  - %s\n" (Monitor.violation_to_string v)) vs);
    if verbose then begin
      Printf.printf "\n--- transcript ---\n";
      List.iter print_endline r.C.r_transcript;
      if evidence then begin
        Printf.printf "\n--- erroneous-state evidence ---\n";
        List.iter (fun a -> List.iter print_endline a.Erroneous_state.evidence) r.C.r_audits
      end
    end
end
