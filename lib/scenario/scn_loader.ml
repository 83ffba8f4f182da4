(* Loading scenarios: [.scn] surface text, parsed on load. The text is
   the only serialized form of a program; errors name the input. *)

let load_string ?(name = "<string>") data : (Scn_bytecode.program, string) result =
  match Scn_parser.parse data with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" name (Scn_ast.error_to_string e))

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok data
  | exception Sys_error msg -> Error msg

let load_file path : (Scn_bytecode.program, string) result =
  match read_file path with
  | Error msg -> Error msg
  | Ok data -> load_string ~name:path data
