(* The scenario program: what {!Scn_parser} produces, {!Scn_check}
   checks against a backend, {!Scn_vm} runs and {!Scn_disasm} prints.
   The [.scn] surface text is its only serialized form.

   A section is an array of typed instructions with every name inline.
   Labels take no slot: the parser resolves them to the pc of the next
   instruction, so a jump carries its target pc and the pcs the
   coverage edges record are the instruction indices. Registers and
   jump targets are plain ints a generated program may set to
   anything; {!Scn_check} bounds them. *)

type reg = Scn_ast.reg

type instr =
  | Halt
  | Set of reg * int64  (* rN = k *)
  | Add of reg * reg * int64  (* rN = add rM k *)
  | Env of reg * string * int64  (* rN = symbol [k]: resolved by the backend *)
  | Pte_of of reg * reg * Pte.flag list  (* rN = pte rM flags *)
  | Entry_maddr of reg * reg * reg  (* rN = entry-maddr table index *)
  | Entry_linear of reg * reg * reg
  | Hypercall of reg * string * reg array  (* rN = hypercall name args: the return code *)
  | Inject_read of reg * Access.action * reg  (* rN = 8-byte port read at rM *)
  | Log of string
  | Logf of string * reg array
  | Log_errno of string  (* one %s, filled with the last port errno *)
  | Inject of Access.action * reg * reg  (* port write: address, value *)
  | Host_write of reg * reg  (* host 64-bit write: address, value *)
  | Guest of string * reg array  (* guest workload op, effects only *)
  | Payload of string * reg array  (* named abusive-functionality routine *)
  | State of string * reg array  (* declare an expected erroneous state *)
  | Tick_all
  | Goto of int
  | If_err of int  (* branch when the last port call failed *)
  | If_neg of reg * int  (* branch when a register is negative *)
  | Rc_errno  (* attempt rc := Some (return code of the last port errno) *)
  | Rc_result  (* attempt rc := Some 0 / Some errno-rc, like the KVM rows *)
  | Rc_reg of reg
  | Rc_none

type backend_tag = Any | Xen_only | Kvm_only

let backend_tag_to_string = function Any -> "any" | Xen_only -> "xen" | Kvm_only -> "kvm"

let backend_tag_of_string = function
  | "any" -> Some Any
  | "xen" -> Some Xen_only
  | "kvm" -> Some Kvm_only
  | _ -> None

type program = {
  name : string;
  xsa : string;
  description : string;
  backend : backend_tag;
  model : Scn_ast.model;
  expect : string list;  (* violation classes the injection run must show *)
  exploit : instr array;
  inject : instr array;
}

(* Field readers for callers that pass them as functions. *)
let backend p = p.backend
let expected_violations p = p.expect

(* --- log format mini-language ------------------------------------------- *)

(* The directives the corpus programs print with. [%s] is
   reserved for [log-errno] (exactly one, no other conversions). *)
let fmt_directives = [ "%016Lx"; "%Lx"; "%d"; "%x"; "%%" ]

let fmt_arity fmt =
  let n = String.length fmt in
  let rec go i arity =
    if i >= n then Ok arity
    else if fmt.[i] <> '%' then go (i + 1) arity
    else
      match
        List.find_opt
          (fun d -> i + String.length d <= n && String.sub fmt i (String.length d) = d)
          fmt_directives
      with
      | Some "%%" -> go (i + 2) arity
      | Some d -> go (i + String.length d) (arity + 1)
      | None -> Error (Printf.sprintf "unsupported format directive at offset %d of %S" i fmt)
  in
  go 0 0

let errno_fmt_ok fmt =
  (* exactly one %s and nothing else *)
  let n = String.length fmt in
  let rec go i seen =
    if i >= n then if seen then Ok () else Error (Printf.sprintf "log-errno format %S needs a %%s" fmt)
    else if fmt.[i] <> '%' then go (i + 1) seen
    else if i + 1 < n && fmt.[i + 1] = 's' && not seen then go (i + 2) true
    else if i + 1 < n && fmt.[i + 1] = '%' then go (i + 2) seen
    else Error (Printf.sprintf "log-errno format %S may only use a single %%s" fmt)
  in
  go 0 false

let render fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let n = String.length fmt in
  let rec go i k =
    if i >= n then ()
    else if fmt.[i] <> '%' then (
      Buffer.add_char buf fmt.[i];
      go (i + 1) k)
    else
      match
        List.find_opt
          (fun d -> i + String.length d <= n && String.sub fmt i (String.length d) = d)
          fmt_directives
      with
      | Some "%%" ->
          Buffer.add_char buf '%';
          go (i + 2) k
      | Some d ->
          let v = if k < Array.length args then args.(k) else 0L in
          (match d with
          | "%016Lx" -> Buffer.add_string buf (Printf.sprintf "%016Lx" v)
          | "%Lx" | "%x" -> Buffer.add_string buf (Printf.sprintf "%Lx" v)
          | _ -> Buffer.add_string buf (Int64.to_string v));
          go (i + String.length d) (k + 1)
      | None ->
          Buffer.add_char buf '%';
          go (i + 1) k
  in
  go 0 0;
  Buffer.contents buf

let render_errno fmt s =
  let buf = Buffer.create (String.length fmt + String.length s) in
  let n = String.length fmt in
  let rec go i =
    if i >= n then ()
    else if fmt.[i] = '%' && i + 1 < n && fmt.[i + 1] = 's' then (
      Buffer.add_string buf s;
      go (i + 2))
    else if fmt.[i] = '%' && i + 1 < n && fmt.[i + 1] = '%' then (
      Buffer.add_char buf '%';
      go (i + 2))
    else (
      Buffer.add_char buf fmt.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents buf
