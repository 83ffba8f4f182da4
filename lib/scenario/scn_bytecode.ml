(* Compact flat bytecode for compiled scenarios: the in-memory program
   the compiler produces and the VM runs. The [.scn] surface text is
   its only serialized form.

   One instruction is a fixed-width record: opcode, three register
   operands, an arity, a string-pool id, and a 64-bit immediate. All
   names (log strings, env symbols, payload/hypercall/guest/state
   names) live in a shared string pool so the instruction stream stays
   fixed-width and a fuzzer can mutate it without re-laying-out the
   program; {!Scn_check} validates whatever it holds. *)

type instr = {
  op : int;  (* u8 *)
  a : int;  (* u8, register or small operand *)
  b : int;  (* u8 *)
  c : int;  (* u8 *)
  n : int;  (* u8, call arity / operand count *)
  sid : int;  (* u16 string-pool index *)
  imm : int64;
}

let nop = { op = 0; a = 0; b = 0; c = 0; n = 0; sid = 0; imm = 0L }

(* Opcode assignments — stable; the disassembler and VM switch on them. *)
let op_halt = 0
let op_loadi = 1 (* a <- imm *)
let op_add = 2 (* a <- b + imm *)
let op_env = 3 (* a <- env str[sid] (imm) *)
let op_pte = 4 (* a <- pte(mfn = b, flags = imm bitmask over flag table) *)
let op_emaddr = 5 (* a <- entry_maddr(table = b, index = c) *)
let op_elin = 6 (* a <- entry_linear(table = b, index = c) *)
let op_log = 7 (* log str[sid] *)
let op_logf1 = 8 (* log fmt[sid] % a *)
let op_logf2 = 9 (* log fmt[sid] % (a, b) *)
let op_logerr = 10 (* log fmt[sid] % errno string *)
let op_inject = 11 (* port write: addr = a, value = b, action = imm *)
let op_injectr = 12 (* a <- port read: addr = b, action = imm *)
let op_hostw = 13 (* host 64-bit write: addr = a, value = b *)
let op_hc = 14 (* a <- hypercall str[sid] (args a.. per n from b, c) *)
let op_guest = 15 (* guest op str[sid] (args per n from a, b, c) *)
let op_payload = 16 (* payload str[sid] (args per n from a, b, c) *)
let op_state = 17 (* declare state str[sid] (args per n from a, b, c) *)
let op_tick = 18
let op_jmp = 19 (* pc <- imm *)
let op_jerr = 20 (* pc <- imm when the error flag is set *)
let op_jneg = 21 (* pc <- imm when reg a < 0 *)
let op_rcerr = 22 (* rc <- Some (rc of last errno) *)
let op_rcres = 23 (* rc <- Some (0 | rc of last errno) *)
let op_rcreg = 24 (* rc <- Some (reg a) *)
let op_rcnone = 25
let num_opcodes = 26

let op_names =
  [|
    "halt"; "loadi"; "add"; "env"; "pte"; "entry-maddr"; "entry-linear"; "log"; "logf1";
    "logf2"; "log-errno"; "inject"; "inject-read"; "host-w64"; "hypercall"; "guest";
    "payload"; "state"; "tick-all"; "jmp"; "jmp-err"; "jmp-neg"; "rc-errno"; "rc-result";
    "rc-reg"; "rc-none";
  |]

(* Total: a mutated or generated program may carry any opcode, and the
   checker names it in its error. *)
let op_name op = if op >= 0 && op < num_opcodes then op_names.(op) else Printf.sprintf "op%d" op

type backend_tag = Any | Xen_only | Kvm_only

let backend_tag_to_string = function Any -> "any" | Xen_only -> "xen" | Kvm_only -> "kvm"

let backend_tag_of_string = function
  | "any" -> Some Any
  | "xen" -> Some Xen_only
  | "kvm" -> Some Kvm_only
  | _ -> None

(* The compiled header mirrors {!Scn_ast.model} with every name interned. *)
type header = {
  h_name : int;
  h_xsa : int;
  h_description : int;
  h_backend : backend_tag;
  h_model_name : int;
  h_source : int;  (* index into Scn_ast.sources *)
  h_iface_kind : int;  (* 0 hypercall, 1 device-emulation, 2 instruction-interception *)
  h_iface_str : int;  (* sid; interns "" for instruction-interception *)
  h_target : int;  (* index into Scn_ast.targets *)
  h_functionality : int;  (* index into Abusive_functionality.all *)
  h_represents : int list;
  h_summary : int;
  h_expect : int list;  (* indices into Scn_ast.violation_classes *)
}

type program = { strings : string array; header : header; exploit : instr array; inject : instr array }

let str p sid = if sid >= 0 && sid < Array.length p.strings then p.strings.(sid) else ""

(* --- log format mini-language ------------------------------------------- *)

(* The directives the legacy use cases actually print with. [%s] is
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

(* --- header accessors ---------------------------------------------------- *)

let name p = str p p.header.h_name
let xsa p = str p p.header.h_xsa
let description p = str p p.header.h_description
let backend p = p.header.h_backend

let model p : Scn_ast.model =
  let h = p.header in
  {
    m_name = str p h.h_model_name;
    m_source = snd (List.nth Scn_ast.sources h.h_source);
    m_interface =
      (match h.h_iface_kind with
      | 0 -> Intrusion_model.Hypercall_interface (str p h.h_iface_str)
      | 1 -> Intrusion_model.Device_emulation (str p h.h_iface_str)
      | _ -> Intrusion_model.Instruction_interception);
    m_target = snd (List.nth Scn_ast.targets h.h_target);
    m_functionality = List.nth Abusive_functionality.all h.h_functionality;
    m_represents = List.map (str p) h.h_represents;
    m_summary = str p h.h_summary;
  }

let intrusion_model p = Scn_ast.intrusion_model (model p)
let expected_violations p = List.map (List.nth Scn_ast.violation_classes) p.header.h_expect

(* Pte flag bitmask: bit i of [imm] = membership of the i-th entry of
   {!Scn_ast.pte_flags} — an index mask, not the architectural bits, so
   the disassembler recovers the surface flag names exactly. *)
let pte_mask flags =
  List.fold_left
    (fun m f ->
      let rec idx i = function
        | [] -> m
        | (_, g) :: tl -> if g = f then Int64.logor m (Int64.shift_left 1L i) else idx (i + 1) tl
      in
      idx 0 Scn_ast.pte_flags)
    0L flags

let pte_unmask imm =
  List.filteri (fun i _ -> Int64.logand (Int64.shift_right_logical imm i) 1L = 1L) Scn_ast.pte_flags
  |> List.map snd
