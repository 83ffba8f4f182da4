(* Load-time checking of a program against a backend capability table.
   The parser already enforces what needs no table (labels, format and
   call arities). These checks hold for any in-memory program — parsed
   from [.scn] text, or generated or mutated directly — and cover what
   such a program can still get wrong: register and jump bounds, and
   the backend-dependent judgments the paper's gating calls for. Does
   this backend know the environment symbol (and its argument range),
   hypercall, guest op, payload or state being named, with that arity;
   is the port action or the host write admitted; may a scenario marked
   for one backend run on another at all; and are its expected
   violation classes ones the monitor reports. *)

open Scn_bytecode

(* What one backend admits. Env symbols carry inclusive bounds on their
   numeric argument; call tables carry exact arities. Pure data, so the
   CLI can print it and the tests can probe it. *)
type caps = {
  cap_backend : backend_tag;  (* Xen_only or Kvm_only, never Any *)
  cap_env : (string * (int64 * int64)) list;
  cap_hypercalls : (string * int) list;
  cap_guest_ops : (string * int) list;
  cap_payloads : (string * int) list;
  cap_states : (string * int) list;
  cap_host_write : bool;
  cap_actions : Access.action list;
}

let compatible caps tag = tag = Any || tag = caps.cap_backend

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let registers = function
  | Halt | Log _ | Log_errno _ | Tick_all | Goto _ | If_err _ | Rc_errno | Rc_result | Rc_none -> []
  | Set (r, _) | Env (r, _, _) | If_neg (r, _) | Rc_reg r -> [ r ]
  | Add (r, m, _) | Pte_of (r, m, _) | Inject_read (r, _, m) | Inject (_, r, m) | Host_write (r, m) ->
      [ r; m ]
  | Entry_maddr (r, m, i) | Entry_linear (r, m, i) -> [ r; m; i ]
  | Hypercall (r, _, args) -> r :: Array.to_list args
  | Logf (_, args) | Guest (_, args) | Payload (_, args) | State (_, args) -> Array.to_list args

let check_instr caps section len pc i =
  let err fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Printf.sprintf "%s section, pc %d (%s): %s" section pc (Scn_disasm.instr_to_string i)
             msg))
      fmt
  in
  let backend = backend_tag_to_string caps.cap_backend in
  let named table what name args =
    match List.assoc_opt name table with
    | Some arity when Array.length args = arity -> Ok ()
    | Some arity -> err "%s %S takes %d arguments, got %d" what name arity (Array.length args)
    | None ->
        err "unknown %s %S on backend %s (known: %s)" what name backend
          (match List.map fst table with [] -> "none" | l -> String.concat ", " l)
  in
  let action a =
    if List.mem a caps.cap_actions then Ok ()
    else err "action %s is gated off on backend %s" (Access.to_string a) backend
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
      match List.assoc_opt sym caps.cap_env with
      | Some (lo, hi) when arg >= lo && arg <= hi -> Ok ()
      | Some (lo, hi) -> err "argument %Ld to %S outside [%Ld, %Ld]" arg sym lo hi
      | None -> err "unknown environment symbol %S on backend %s" sym backend)
  | Hypercall (_, name, args) -> named caps.cap_hypercalls "hypercall" name args
  | Guest (name, args) -> named caps.cap_guest_ops "guest op" name args
  | Payload (name, args) -> named caps.cap_payloads "payload" name args
  | State (name, args) -> named caps.cap_states "erroneous state" name args
  | Inject (a, _, _) | Inject_read (_, a, _) -> action a
  | Host_write _ when not caps.cap_host_write ->
      err "host writes are not exposed on backend %s" backend
  | Goto pc | If_err pc | If_neg (_, pc) -> jump pc
  | _ -> Ok ()

let check_section caps section instrs =
  let len = Array.length instrs in
  let rec go pc =
    if pc >= len then Ok ()
    else
      let* () = check_instr caps section len pc instrs.(pc) in
      go (pc + 1)
  in
  go 0

(* Full load-time check of one program against one backend. *)
let check caps (p : program) : (unit, string) result =
  if not (compatible caps p.backend) then
    Error
      (Printf.sprintf "scenario %S is for backend %s, not %s" p.name
         (backend_tag_to_string p.backend)
         (backend_tag_to_string caps.cap_backend))
  else
    let* () =
      match List.find_opt (fun c -> not (List.mem c Scn_ast.violation_classes)) p.expect with
      | Some c ->
          Error
            (Printf.sprintf "header: unknown expected violation class %S (one of %s)" c
               (String.concat ", " Scn_ast.violation_classes))
      | None -> Ok ()
    in
    let* () = check_section caps "exploit" p.exploit in
    check_section caps "inject" p.inject
