(* Recursive-descent parser over the eager token array, straight to
   the {!Scn_bytecode.program} every later stage uses. Total like the
   lexer: malformed input becomes a positioned [Error], never an
   exception. Besides the grammar it enforces what needs no backend
   table: labels (unknown or duplicate), format arities and call
   arities, each reported at its statement; everything that depends on
   the backend is {!Scn_check}'s.

   One genuine ambiguity in the surface syntax: calls take a variadic
   register list ([payload xsa148-continue r1 r2 r3]) and the next
   statement may itself start with a register ([r4 = ...]). A register
   token is treated as an argument only when the token after it is not
   [=] — one token of lookahead resolves every program the grammar can
   express. *)

open Scn_lexer
module B = Scn_bytecode

type st = { toks : ttok array; mutable idx : int }

let cur s = s.toks.(min s.idx (Array.length s.toks - 1))
let peek2 s = s.toks.(min (s.idx + 1) (Array.length s.toks - 1))
let bump s = s.idx <- s.idx + 1

let fail_at at fmt = Printf.ksprintf (fun msg -> Error { Scn_ast.msg; at }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let expect s tok what =
  let t = cur s in
  if t.tok = tok then (
    bump s;
    Ok t.tat)
  else fail_at t.tat "expected %s, found %s" what (token_to_string t.tok)

let ident s what =
  let t = cur s in
  match t.tok with
  | IDENT name ->
      bump s;
      Ok (name, t.tat)
  | other -> fail_at t.tat "expected %s, found %s" what (token_to_string other)

let string_lit s what =
  let t = cur s in
  match t.tok with
  | STRING v ->
      bump s;
      Ok (v, t.tat)
  | other -> fail_at t.tat "expected %s (a quoted string), found %s" what (token_to_string other)

let int_lit s what =
  let t = cur s in
  match t.tok with
  | INT v ->
      bump s;
      Ok (v, t.tat)
  | other -> fail_at t.tat "expected %s (an integer), found %s" what (token_to_string other)

let reg_of_ident name =
  if name = "rc" then Some 15
  else if String.length name >= 2 && name.[0] = 'r' then
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some n when n >= 0 && n < Scn_ast.num_regs -> Some n
    | _ -> None
  else None

let reg s what =
  let t = cur s in
  match t.tok with
  | IDENT name -> (
      match reg_of_ident name with
      | Some r ->
          bump s;
          Ok r
      | None -> fail_at t.tat "expected %s (a register r0..r15 or rc), found %s" what name)
  | other -> fail_at t.tat "expected %s (a register), found %s" what (token_to_string other)

(* Variadic trailing register list; stops before an [rN =] statement. *)
let rec reg_args s acc =
  match (cur s).tok with
  | IDENT name when reg_of_ident name <> None && (peek2 s).tok <> EQ -> (
      match reg_of_ident name with
      | Some r ->
          bump s;
          reg_args s (r :: acc)
      | None -> Ok (List.rev acc))
  | _ -> Ok (List.rev acc)

let action s =
  let* name, at = ident s "an access action" in
  match List.assoc_opt name Scn_ast.actions with
  | Some a -> Ok a
  | None ->
      fail_at at "unknown access action %S (one of %s)" name
        (String.concat ", " (List.map fst Scn_ast.actions))

let pte_flag_names = List.map fst Scn_ast.pte_flags

let rec pte_flags s acc =
  match (cur s).tok with
  | IDENT name when List.mem name pte_flag_names ->
      bump s;
      pte_flags s (List.assoc name Scn_ast.pte_flags :: acc)
  | _ -> List.rev acc

(* Register arguments of a call, at most [limit] of them. *)
let call_args at what limit args =
  let n = List.length args in
  if n > limit then fail_at at "%s takes at most %d register arguments, got %d" what limit n
  else Ok (Array.of_list args)

(* --- expressions (right of [rN =]) ------------------------------------- *)

let expr s ~at (r : Scn_ast.reg) : (B.instr, Scn_ast.error) result =
  let t = cur s in
  match t.tok with
  | INT v ->
      bump s;
      Ok (B.Set (r, v))
  | IDENT "add" ->
      bump s;
      let* m = reg s "the augend" in
      let* v, _ = int_lit s "the addend" in
      Ok (B.Add (r, m, v))
  | IDENT "pte" ->
      bump s;
      let* m = reg s "the frame register" in
      let flags = pte_flags s [] in
      if flags = [] then fail_at t.tat "pte needs at least one flag (present, rw, user, ...)"
      else Ok (B.Pte_of (r, m, flags))
  | IDENT "entry-maddr" ->
      bump s;
      let* rm = reg s "the table frame register" in
      let* ri = reg s "the index register" in
      Ok (B.Entry_maddr (r, rm, ri))
  | IDENT "entry-linear" ->
      bump s;
      let* rm = reg s "the table frame register" in
      let* ri = reg s "the index register" in
      Ok (B.Entry_linear (r, rm, ri))
  | IDENT "hypercall" ->
      bump s;
      let* name, _ = ident s "the hypercall name" in
      let* args = reg_args s [] in
      let* args = call_args at "a hypercall" 2 args in
      Ok (B.Hypercall (r, name, args))
  | IDENT "inject-read" ->
      bump s;
      let* a = action s in
      let* m = reg s "the address register" in
      Ok (B.Inject_read (r, a, m))
  | IDENT name when reg_of_ident name = None ->
      bump s;
      let arg = match (cur s).tok with
        | INT v ->
            bump s;
            v
        | _ -> 0L
      in
      Ok (B.Env (r, name, arg))
  | other ->
      fail_at t.tat "expected an expression (literal, add, pte, entry-maddr, entry-linear, \
                     hypercall, inject-read, or an environment symbol), found %s"
        (token_to_string other)

(* --- statements --------------------------------------------------------- *)

(* A statement is an instruction, a label (which takes no slot), or a
   jump whose target pc is known once its section ends. *)
type item = Ins of B.instr | Label of string | Jump of string * (int -> B.instr)

let stmt s : (item, Scn_ast.error) result =
  let t = cur s in
  let at = t.tat in
  let ins i = Ok (Ins i) in
  let jump mk =
    let* l, _ = ident s "the jump label" in
    Ok (Jump (l, mk))
  in
  let call ~name_what what mk =
    bump s;
    let* name, _ = ident s name_what in
    let* args = reg_args s [] in
    let* args = call_args at what 3 args in
    ins (mk name args)
  in
  match t.tok with
  | IDENT name when reg_of_ident name <> None && (peek2 s).tok = EQ ->
      let r = Option.get (reg_of_ident name) in
      bump s;
      bump s (* = *);
      let* i = expr s ~at r in
      ins i
  | IDENT "log" ->
      bump s;
      let* msg, _ = string_lit s "the log message" in
      ins (B.Log msg)
  | IDENT "logf" -> (
      bump s;
      let* fmt, _ = string_lit s "the format string" in
      let* args = reg_args s [] in
      if args = [] then fail_at at "logf needs at least one register argument"
      else
        match B.fmt_arity fmt with
        | Error msg -> fail_at at "%s" msg
        | Ok arity when arity <> List.length args ->
            fail_at at "format %S takes %d arguments, logf was given %d" fmt arity
              (List.length args)
        | Ok _ ->
            let* args = call_args at "logf" 2 args in
            ins (B.Logf (fmt, args)))
  | IDENT "log-errno" -> (
      bump s;
      let* fmt, _ = string_lit s "the format string" in
      match B.errno_fmt_ok fmt with
      | Error msg -> fail_at at "%s" msg
      | Ok () -> ins (B.Log_errno fmt))
  | IDENT "inject" ->
      bump s;
      let* a = action s in
      let* addr = reg s "the address register" in
      let* value = reg s "the value register" in
      ins (B.Inject (a, addr, value))
  | IDENT "host-w64" ->
      bump s;
      let* addr = reg s "the address register" in
      let* value = reg s "the value register" in
      ins (B.Host_write (addr, value))
  | IDENT "guest" -> call ~name_what:"the guest op name" "a guest op" (fun n a -> B.Guest (n, a))
  | IDENT "payload" -> call ~name_what:"the payload name" "a payload" (fun n a -> B.Payload (n, a))
  | IDENT "state" ->
      call ~name_what:"the erroneous-state name" "an erroneous state" (fun n a -> B.State (n, a))
  | IDENT "tick-all" ->
      bump s;
      ins B.Tick_all
  | IDENT "rc-errno" ->
      bump s;
      ins B.Rc_errno
  | IDENT "rc-result" ->
      bump s;
      ins B.Rc_result
  | IDENT "rc-none" ->
      bump s;
      ins B.Rc_none
  | IDENT "rc-reg" ->
      bump s;
      let* r = reg s "the return-code register" in
      ins (B.Rc_reg r)
  | IDENT "goto" ->
      bump s;
      jump (fun pc -> B.Goto pc)
  | IDENT "if-err" ->
      bump s;
      jump (fun pc -> B.If_err pc)
  | IDENT "if-neg" ->
      bump s;
      let* r = reg s "the tested register" in
      jump (fun pc -> B.If_neg (r, pc))
  | IDENT "label" ->
      bump s;
      let* l, _ = ident s "the label name" in
      Ok (Label l)
  | IDENT "halt" ->
      bump s;
      ins B.Halt
  | other -> fail_at at "expected a statement, found %s" (token_to_string other)

(* Each label names the pc of the instruction after it; a section's
   jumps resolve once its closing brace is read. *)
let resolve items =
  let labels = Hashtbl.create 8 in
  let rec place pc = function
    | [] -> Ok ()
    | (Label l, at) :: tl ->
        if Hashtbl.mem labels l then fail_at at "duplicate label %S" l
        else (
          Hashtbl.add labels l pc;
          place pc tl)
    | _ :: tl -> place (pc + 1) tl
  in
  let* () = place 0 items in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (Label _, _) :: tl -> go acc tl
    | (Ins i, _) :: tl -> go (i :: acc) tl
    | (Jump (l, mk), at) :: tl -> (
        match Hashtbl.find_opt labels l with
        | Some pc -> go (mk pc :: acc) tl
        | None -> fail_at at "unknown label %S" l)
  in
  go [] items

let body s : (B.instr array, Scn_ast.error) result =
  let* _ = expect s LBRACE "'{'" in
  let rec go acc =
    match (cur s).tok with
    | RBRACE ->
        bump s;
        resolve (List.rev acc)
    | EOF -> fail_at (cur s).tat "unterminated block: expected '}'"
    | _ ->
        let at = (cur s).tat in
        let* it = stmt s in
        go ((it, at) :: acc)
  in
  go []

(* --- the intrusion-model header ----------------------------------------- *)

let rec string_list s acc =
  match (cur s).tok with
  | STRING v ->
      bump s;
      string_list s (v :: acc)
  | _ -> List.rev acc

let model s : (Scn_ast.model, Scn_ast.error) result =
  let* _ = expect s LBRACE "'{' to open the model block" in
  let name = ref None and source = ref None and interface = ref None in
  let target = ref None and functionality = ref None in
  let represents = ref [] and summary = ref None in
  let rec go () =
    match (cur s).tok with
    | RBRACE ->
        bump s;
        Ok ()
    | IDENT "name" ->
        bump s;
        let* v, _ = string_lit s "the model name" in
        name := Some v;
        go ()
    | IDENT "source" ->
        bump s;
        let* v, at = ident s "the trigger source" in
        (match List.assoc_opt v Scn_ast.sources with
        | Some src ->
            source := Some src;
            go ()
        | None ->
            fail_at at "unknown trigger source %S (one of %s)" v
              (String.concat ", " (List.map fst Scn_ast.sources)))
    | IDENT "interface" -> (
        bump s;
        let* v, at = ident s "the interaction interface" in
        match v with
        | "hypercall" ->
            let* h, _ = string_lit s "the hypercall name" in
            interface := Some (Intrusion_model.Hypercall_interface h);
            go ()
        | "device-emulation" ->
            let* d, _ = string_lit s "the emulated device" in
            interface := Some (Intrusion_model.Device_emulation d);
            go ()
        | "instruction-interception" ->
            interface := Some Intrusion_model.Instruction_interception;
            go ()
        | other ->
            fail_at at
              "unknown interface %S (hypercall, device-emulation, instruction-interception)"
              other)
    | IDENT "target" ->
        bump s;
        let* v, at = ident s "the target component" in
        (match List.assoc_opt v Scn_ast.targets with
        | Some t ->
            target := Some t;
            go ()
        | None ->
            fail_at at "unknown target component %S (one of %s)" v
              (String.concat ", " (List.map fst Scn_ast.targets)))
    | IDENT "functionality" ->
        bump s;
        let* v, at = string_lit s "the abusive functionality" in
        (match Abusive_functionality.of_string v with
        | Some f ->
            functionality := Some f;
            go ()
        | None -> fail_at at "unknown abusive functionality %S (use the paper's label)" v)
    | IDENT "represents" ->
        bump s;
        represents := !represents @ string_list s [];
        go ()
    | IDENT "summary" ->
        bump s;
        let* v, _ = string_lit s "the model summary" in
        summary := Some v;
        go ()
    | other -> fail_at (cur s).tat "unexpected token %s in model block" (token_to_string other)
  in
  let* () = go () in
  let req what = function
    | Some v -> Ok v
    | None -> fail_at (cur s).tat "model block is missing its %s field" what
  in
  let* m_name = req "name" !name in
  let* m_source = req "source" !source in
  let* m_interface = req "interface" !interface in
  let* m_target = req "target" !target in
  let* m_functionality = req "functionality" !functionality in
  let* m_summary = req "summary" !summary in
  Ok
    {
      Scn_ast.m_name;
      m_source;
      m_interface;
      m_target;
      m_functionality;
      m_represents = !represents;
      m_summary;
    }

(* --- top level ----------------------------------------------------------- *)

let scenario s : (B.program, Scn_ast.error) result =
  let* _, _ =
    match (cur s).tok with
    | IDENT "scenario" ->
        bump s;
        Ok ((), ())
    | other -> fail_at (cur s).tat "expected 'scenario', found %s" (token_to_string other)
  in
  let* name, _ = string_lit s "the scenario name" in
  let* _ = expect s LBRACE "'{'" in
  let xsa = ref None and backend = ref B.Any and description = ref None in
  let model_v = ref None and expect_v = ref [] in
  let exploit = ref None and inject = ref None in
  let rec go () =
    match (cur s).tok with
    | RBRACE ->
        bump s;
        Ok ()
    | IDENT "xsa" ->
        bump s;
        let* v, _ = string_lit s "the advisory id" in
        xsa := Some v;
        go ()
    | IDENT "backend" ->
        bump s;
        let* v, at = ident s "the backend constraint" in
        (match B.backend_tag_of_string v with
        | Some b ->
            backend := b;
            go ()
        | None -> fail_at at "unknown backend %S (xen, kvm, any)" v)
    | IDENT "description" ->
        bump s;
        let* v, _ = string_lit s "the description" in
        description := Some v;
        go ()
    | IDENT "model" ->
        bump s;
        let* m = model s in
        model_v := Some m;
        go ()
    | IDENT "expect" ->
        bump s;
        let* _, _ = match (cur s).tok with
          | IDENT "violation" ->
              bump s;
              Ok ((), ())
          | other ->
              fail_at (cur s).tat "expected 'violation' after 'expect', found %s"
                (token_to_string other)
        in
        let rec classes acc =
          match (cur s).tok with
          | IDENT c when List.mem c Scn_ast.violation_classes ->
              bump s;
              classes (c :: acc)
          | _ -> List.rev acc
        in
        let cs = classes [] in
        if cs = [] then
          fail_at (cur s).tat "expect violation needs at least one class (one of %s)"
            (String.concat ", " Scn_ast.violation_classes)
        else (
          expect_v := !expect_v @ cs;
          go ())
    | IDENT "exploit" ->
        bump s;
        let* b = body s in
        exploit := Some b;
        go ()
    | IDENT "inject" ->
        bump s;
        let* b = body s in
        inject := Some b;
        go ()
    | EOF -> fail_at (cur s).tat "unterminated scenario: expected '}'"
    | other ->
        fail_at (cur s).tat "unexpected token %s in scenario block" (token_to_string other)
  in
  let* () = go () in
  let req what = function
    | Some v -> Ok v
    | None -> fail_at (cur s).tat "scenario is missing its %s" what
  in
  let* xsa = req "xsa field" !xsa in
  let* description = req "description" !description in
  let* model = req "model block" !model_v in
  let* exploit = req "exploit block" !exploit in
  let* inject = req "inject block" !inject in
  Ok { B.name; xsa; description; backend = !backend; model; expect = !expect_v; exploit; inject }

let parse src : (B.program, Scn_ast.error) result =
  match Scn_lexer.tokenize src with
  | Error e -> Error e
  | Ok toks ->
      let s = { toks; idx = 0 } in
      let* sc = scenario s in
      let t = cur s in
      if t.tok = EOF then Ok sc
      else fail_at t.tat "trailing input after scenario: %s" (token_to_string t.tok)
