(* Load-time checking of a program against a backend's op table
   ({!Scn_ops.table}). The parser already enforces what needs no table
   (labels, format and call arities). These checks hold for any
   in-memory program — parsed from [.scn] text, or generated or mutated
   directly — and cover what such a program can still get wrong:
   register and jump bounds, and the backend-dependent judgments the
   paper's gating calls for. Does the table hold the environment symbol
   (and admit its argument), hypercall, guest op, payload or state
   being named, with that arity; does the backend have a host write;
   may a scenario marked for one backend run on another at all; and
   are its expected violation classes ones the monitor reports. An
   unknown name is reported with every name of its kind in table
   order. *)

open Scn_bytecode

let compatible (t : (_, _) Scn_ops.table) tag = tag = Any || tag = t.backend

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let registers = function
  | Halt | Log _ | Log_errno _ | Tick_all | Goto _ | If_err _ | Rc_errno | Rc_result | Rc_none -> []
  | Set (r, _) | Env (r, _, _) | If_neg (r, _) | Rc_reg r -> [ r ]
  | Add (r, m, _) | Pte_of (r, m, _) | Inject_read (r, _, m) | Inject (_, r, m) | Host_write (r, m) ->
      [ r; m ]
  | Entry_maddr (r, m, i) | Entry_linear (r, m, i) -> [ r; m; i ]
  | Hypercall (r, _, args) -> r :: Array.to_list args
  | Logf (_, args) | Guest (_, args) | Payload (_, args) | State (_, args) -> Array.to_list args

let check_instr (t : (_, _) Scn_ops.table) section len pc i =
  let err fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Printf.sprintf "%s section, pc %d (%s): %s" section pc (Scn_disasm.instr_to_string i)
             msg))
      fmt
  in
  let backend = backend_tag_to_string t.backend in
  let named ops what name args =
    match Scn_ops.find name ops with
    | { takes; _ } when Array.length args = takes -> Ok ()
    | { takes; _ } ->
        err "%s %S takes %d arguments, got %d" what name takes (Array.length args)
    | exception Not_found ->
        err "unknown %s %S on backend %s (known: %s)" what name backend
          (match Scn_ops.names ops with [] -> "none" | l -> String.concat ", " l)
  in
  let jump pc =
    if pc >= 0 && pc <= len then Ok () else err "jump target %d outside the section (0..%d)" pc len
  in
  let* () =
    match List.find_opt (fun r -> r < 0 || r >= Scn_ast.num_regs) (registers i) with
    | Some r -> err "register %d out of range (r0..r15)" r
    | None -> Ok ()
  in
  match i with
  | Env (_, sym, arg) -> (
      match Scn_ops.find sym t.env with
      | { takes = lo, hi; _ } when arg >= lo && arg <= hi -> Ok ()
      | { takes = lo, hi; _ } -> err "argument %Ld to %S outside [%Ld, %Ld]" arg sym lo hi
      | exception Not_found -> err "unknown environment symbol %S on backend %s" sym backend)
  | Hypercall (_, name, args) -> named t.hypercalls "hypercall" name args
  | Guest (name, args) -> named t.guest_ops "guest op" name args
  | Payload (name, args) -> named t.payloads "payload" name args
  | State (name, args) -> named t.states "erroneous state" name args
  | Host_write _ when Option.is_none t.host_write ->
      err "host writes are not exposed on backend %s" backend
  | Goto pc | If_err pc | If_neg (_, pc) -> jump pc
  | _ -> Ok ()

let check_section t section instrs =
  let len = Array.length instrs in
  let rec go pc =
    if pc >= len then Ok ()
    else
      let* () = check_instr t section len pc instrs.(pc) in
      go (pc + 1)
  in
  go 0

(* Full load-time check of one program against one backend. *)
let check (t : (_, _) Scn_ops.table) (p : program) : (unit, string) result =
  if not (compatible t p.backend) then
    Error
      (Printf.sprintf "scenario %S is for backend %s, not %s" p.name
         (backend_tag_to_string p.backend)
         (backend_tag_to_string t.backend))
  else
    let* () =
      match List.find_opt (fun c -> not (List.mem c Scn_ast.violation_classes)) p.expect with
      | Some c ->
          Error
            (Printf.sprintf "header: unknown expected violation class %S (one of %s)" c
               (String.concat ", " Scn_ast.violation_classes))
      | None -> Ok ()
    in
    let* () = check_section t "exploit" p.exploit in
    check_section t "inject" p.inject
