(* Program → canonical surface text. The output reparses to the same
   program: [Scn_loader.load_string (disasm p) = Ok p] — the corpus
   roundtrip test holds the pipeline to that. Jump targets come back as
   synthesized [L<pc>] labels. *)

open Scn_bytecode

let esc s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quoted s = Printf.sprintf "\"%s\"" (esc s)

(* Small non-negative values read as decimal; addresses and packed
   values as hex. Negative int64s render as their unsigned hex form,
   which [Int64.of_string] wraps back exactly. *)
let imm_to_string v =
  if v >= 0L && v < 4096L then Int64.to_string v else Printf.sprintf "0x%Lx" v

let reg r = Printf.sprintf "r%d" r
let regs args = List.map reg (Array.to_list args)
let call kw name args = String.concat " " (kw :: name :: regs args)

let instr_to_string = function
  | Halt -> "halt"
  | Set (r, v) -> Printf.sprintf "%s = %s" (reg r) (imm_to_string v)
  | Add (r, m, v) -> Printf.sprintf "%s = add %s %s" (reg r) (reg m) (imm_to_string v)
  | Env (r, sym, 0L) -> Printf.sprintf "%s = %s" (reg r) sym
  | Env (r, sym, v) -> Printf.sprintf "%s = %s %s" (reg r) sym (imm_to_string v)
  | Pte_of (r, m, flags) ->
      String.concat " "
        (Printf.sprintf "%s = pte %s" (reg r) (reg m)
        :: List.map (fun f -> Scn_ast.name_of f Scn_ast.pte_flags) flags)
  | Entry_maddr (r, m, i) -> Printf.sprintf "%s = entry-maddr %s %s" (reg r) (reg m) (reg i)
  | Entry_linear (r, m, i) -> Printf.sprintf "%s = entry-linear %s %s" (reg r) (reg m) (reg i)
  | Hypercall (r, name, args) -> reg r ^ " = " ^ call "hypercall" name args
  | Inject_read (r, a, m) ->
      Printf.sprintf "%s = inject-read %s %s" (reg r) (Scn_ast.name_of a Scn_ast.actions) (reg m)
  | Log msg -> Printf.sprintf "log %s" (quoted msg)
  | Logf (fmt, args) -> String.concat " " ("logf" :: quoted fmt :: regs args)
  | Log_errno fmt -> Printf.sprintf "log-errno %s" (quoted fmt)
  | Inject (a, addr, value) ->
      Printf.sprintf "inject %s %s %s" (Scn_ast.name_of a Scn_ast.actions) (reg addr) (reg value)
  | Host_write (addr, value) -> Printf.sprintf "host-w64 %s %s" (reg addr) (reg value)
  | Guest (name, args) -> call "guest" name args
  | Payload (name, args) -> call "payload" name args
  | State (name, args) -> call "state" name args
  | Tick_all -> "tick-all"
  | Goto pc -> Printf.sprintf "goto L%d" pc
  | If_err pc -> Printf.sprintf "if-err L%d" pc
  | If_neg (r, pc) -> Printf.sprintf "if-neg %s L%d" (reg r) pc
  | Rc_errno -> "rc-errno"
  | Rc_result -> "rc-result"
  | Rc_reg r -> Printf.sprintf "rc-reg %s" (reg r)
  | Rc_none -> "rc-none"

let jump_targets instrs =
  Array.fold_left
    (fun acc -> function Goto pc | If_err pc | If_neg (_, pc) -> pc :: acc | _ -> acc)
    [] instrs

let section_lines instrs =
  let targets = jump_targets instrs in
  let lines = ref [] in
  let add l = lines := l :: !lines in
  Array.iteri
    (fun pc i ->
      if List.mem pc targets then add (Printf.sprintf "    label L%d" pc);
      add ("    " ^ instr_to_string i))
    instrs;
  if List.mem (Array.length instrs) targets then
    add (Printf.sprintf "    label L%d" (Array.length instrs));
  List.rev !lines

let disasm (p : program) : string =
  let m = p.model in
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "scenario %s {" (quoted p.name);
  line "  xsa %s" (quoted p.xsa);
  line "  backend %s" (backend_tag_to_string p.backend);
  line "  description %s" (quoted p.description);
  line "  model {";
  line "    name %s" (quoted m.m_name);
  line "    source %s" (Scn_ast.name_of m.m_source Scn_ast.sources);
  (match m.m_interface with
  | Intrusion_model.Hypercall_interface hc -> line "    interface hypercall %s" (quoted hc)
  | Intrusion_model.Device_emulation d -> line "    interface device-emulation %s" (quoted d)
  | Intrusion_model.Instruction_interception -> line "    interface instruction-interception");
  line "    target %s" (Scn_ast.name_of m.m_target Scn_ast.targets);
  line "    functionality %s" (quoted (Abusive_functionality.to_string m.m_functionality));
  if m.m_represents <> [] then
    line "    represents %s" (String.concat " " (List.map quoted m.m_represents));
  line "    summary %s" (quoted m.m_summary);
  line "  }";
  if p.expect <> [] then line "  expect violation %s" (String.concat " " p.expect);
  line "  exploit {";
  List.iter (fun l -> line "%s" l) (section_lines p.exploit);
  line "  }";
  line "  inject {";
  List.iter (fun l -> line "%s" l) (section_lines p.inject);
  line "  }";
  line "}";
  Buffer.contents b
