(* Load-time checking of compiled programs against a backend capability
   table. The checks run on bytecode, not the AST, so they hold for any
   in-memory program — compiled from [.scn] text, or generated or
   mutated directly: opcodes, register and jump bounds, string-pool
   references, format arities, and the three backend-dependent
   judgments the paper's gating calls for: does this backend know the
   environment symbol / hypercall / payload / state being named, is the
   port action admitted, and may a scenario marked for one backend run
   on another at all. *)

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

let err section pc instr fmt =
  Printf.ksprintf
    (fun msg ->
      Error (Printf.sprintf "%s section, pc %d (%s): %s" section pc (op_name instr.op) msg))
    fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check_instr caps p section len pc i =
  let reg what r =
    if r >= 0 && r < Scn_ast.num_regs then Ok ()
    else err section pc i "%s register %d out of range (r0..r15)" what r
  in
  let jump () =
    if i.imm >= 0L && i.imm <= Int64.of_int len then Ok ()
    else err section pc i "jump target %Ld outside the section (0..%d)" i.imm len
  in
  let action () =
    match Access.of_code i.imm with
    | Some a when List.mem a caps.cap_actions -> Ok a
    | Some a ->
        err section pc i "action %s is gated off on backend %s" (Access.to_string a)
          (backend_tag_to_string caps.cap_backend)
    | None -> err section pc i "invalid action code %Ld" i.imm
  in
  let named table what =
    let name = str p i.sid in
    match List.assoc_opt name table with
    | Some arity ->
        if i.n = arity then Ok ()
        else err section pc i "%s %S takes %d arguments, got %d" what name arity i.n
    | None ->
        err section pc i "unknown %s %S on backend %s (known: %s)" what name
          (backend_tag_to_string caps.cap_backend)
          (match List.map fst table with [] -> "none" | l -> String.concat ", " l)
  in
  let call_regs () =
    let* () = reg "argument" i.a in
    let* () = reg "argument" i.b in
    reg "argument" i.c
  in
  if i.op = op_halt || i.op = op_tick || i.op = op_rcerr || i.op = op_rcres || i.op = op_rcnone
  then Ok ()
  else if i.op = op_loadi then reg "destination" i.a
  else if i.op = op_add then
    let* () = reg "destination" i.a in
    reg "source" i.b
  else if i.op = op_env then
    let* () = reg "destination" i.a in
    let name = str p i.sid in
    (match List.assoc_opt name caps.cap_env with
    | Some (lo, hi) ->
        if i.imm >= lo && i.imm <= hi then Ok ()
        else err section pc i "argument %Ld to %S outside [%Ld, %Ld]" i.imm name lo hi
    | None ->
        err section pc i "unknown environment symbol %S on backend %s" name
          (backend_tag_to_string caps.cap_backend))
  else if i.op = op_pte then
    let* () = reg "destination" i.a in
    let* () = reg "frame" i.b in
    let max_mask = Int64.shift_left 1L (List.length Scn_ast.pte_flags) in
    if i.imm > 0L && i.imm < max_mask then Ok ()
    else err section pc i "pte flag mask %Ld invalid" i.imm
  else if i.op = op_emaddr || i.op = op_elin then
    let* () = reg "destination" i.a in
    let* () = reg "table" i.b in
    reg "index" i.c
  else if i.op = op_log then Ok ()
  else if i.op = op_logf1 || i.op = op_logf2 then
    let want = if i.op = op_logf1 then 1 else 2 in
    let* () = reg "argument" i.a in
    let* () = if want = 2 then reg "argument" i.b else Ok () in
    (match fmt_arity (str p i.sid) with
    | Ok a when a = want -> Ok ()
    | Ok a -> err section pc i "format %S has %d directives, opcode supplies %d" (str p i.sid) a want
    | Error msg -> err section pc i "%s" msg)
  else if i.op = op_logerr then (
    match errno_fmt_ok (str p i.sid) with
    | Ok () -> Ok ()
    | Error msg -> err section pc i "%s" msg)
  else if i.op = op_inject then
    let* () = reg "address" i.a in
    let* () = reg "value" i.b in
    let* _ = action () in
    Ok ()
  else if i.op = op_injectr then
    let* () = reg "destination" i.a in
    let* () = reg "address" i.b in
    let* _ = action () in
    Ok ()
  else if i.op = op_hostw then
    if not caps.cap_host_write then
      err section pc i "host writes are not exposed on backend %s"
        (backend_tag_to_string caps.cap_backend)
    else
      let* () = reg "address" i.a in
      reg "value" i.b
  else if i.op = op_hc then
    let* () = reg "destination" i.a in
    let* () = reg "argument" i.b in
    let* () = reg "argument" i.c in
    if i.n > 2 then err section pc i "hypercalls take at most 2 register arguments"
    else named caps.cap_hypercalls "hypercall"
  else if i.op = op_guest then
    let* () = call_regs () in
    if i.n > 3 then err section pc i "guest ops take at most 3 register arguments"
    else named caps.cap_guest_ops "guest op"
  else if i.op = op_payload then
    let* () = call_regs () in
    if i.n > 3 then err section pc i "payloads take at most 3 register arguments"
    else named caps.cap_payloads "payload"
  else if i.op = op_state then
    let* () = call_regs () in
    if i.n > 3 then err section pc i "erroneous states take at most 3 register arguments"
    else named caps.cap_states "erroneous state"
  else if i.op = op_jmp || i.op = op_jerr then jump ()
  else if i.op = op_jneg then
    let* () = reg "tested" i.a in
    jump ()
  else if i.op = op_rcreg then reg "return-code" i.a
  else err section pc i "unknown opcode %d" i.op

let check_section caps p section instrs =
  let len = Array.length instrs in
  let rec go pc =
    if pc >= len then Ok ()
    else
      let* () = check_instr caps p section len pc instrs.(pc) in
      go (pc + 1)
  in
  go 0

(* The header's indices into the fixed tables {!Scn_bytecode.model} and
   {!Scn_bytecode.expected_violations} read, and the interface kind
   (0 hypercall, 1 device emulation, 2 instruction interception). *)
let check_header h =
  let index field table v =
    let n = List.length table in
    if v >= 0 && v < n then Ok ()
    else Error (Printf.sprintf "header: %s index %d out of range (0..%d)" field v (n - 1))
  in
  let* () = index "source" Scn_ast.sources h.h_source in
  let* () = index "target" Scn_ast.targets h.h_target in
  let* () = index "functionality" Abusive_functionality.all h.h_functionality in
  let* () =
    if h.h_iface_kind >= 0 && h.h_iface_kind <= 2 then Ok ()
    else Error (Printf.sprintf "header: interface kind %d out of range (0..2)" h.h_iface_kind)
  in
  List.fold_left
    (fun acc v ->
      let* () = acc in
      index "expect" Scn_ast.violation_classes v)
    (Ok ()) h.h_expect

(* Full load-time check of one program against one backend. *)
let check caps (p : program) : (unit, string) result =
  if not (compatible caps p.header.h_backend) then
    Error
      (Printf.sprintf "scenario %S is for backend %s, not %s" (name p)
         (backend_tag_to_string p.header.h_backend)
         (backend_tag_to_string caps.cap_backend))
  else
    let* () = check_header p.header in
    let* () = check_section caps p "exploit" p.exploit in
    check_section caps p "inject" p.inject
