(* The scenario VM: a stack-free register machine executing scenario
   programs against any {!Substrate.S} through its OPS table.

   Sixteen 64-bit registers, one error flag (the last injection-port or
   host-write errno), one return-code slot, a transcript accumulator
   and a declared-states accumulator — exactly the state a hand-written
   use case threads through its closure, made explicit. Each section
   (exploit, inject) runs start-to-[halt]/end and folds into a
   {!Campaign.Make.attempt}, so a scenario drops into every consumer of
   campaign use cases — the campaign engine, the scheduler, the
   trace/VMI drivers, attribution — without those layers knowing
   scenarios exist.

   Named ops run through the backend's op table ({!Scn_ops.table}),
   the same table {!Scn_check.check} admits them from; [use_case]
   resolves each name to its entry once per program. The VM assumes a
   checked program; a call the checker would have refused raises
   {!Scn_ops.Trap}. *)

open Scn_bytecode

(* Same arithmetic as [Toolkit.entry_maddr]/[entry_linear], inlined so
   the VM does not depend upward on the exploit library. *)
let entry_maddr ~table ~index =
  Int64.add (Addr.maddr_of_mfn (Int64.to_int table)) (Int64.mul 8L index)

(* The code of op [i] of [ops], which {!resolve} found under [name]. *)
let run what name ops i =
  if i < 0 then Scn_ops.trap "unknown %s %S" what name else ops.(i).Scn_ops.run

module Make (O : Scn_ops.OPS) = struct
  module B = O.B

  (* Applied to [O.B] directly (not the [B] alias above): applicative
     functor paths only normalize through true module aliases, and
     [Scenario_xen.B = Substrate_xen] is one — so [C.use_case] is the
     very type the top-level [Campaign] takes, and scenarios flow into
     every downstream driver unchanged. *)
  module C = Campaign.Make (O.B)

  type st = {
    regs : int64 array;
    mutable err : Errno.t option;
    mutable rc : int option;
    mutable logs : string list;  (* reversed *)
    mutable states : B.state_spec list;  (* reversed *)
  }

  let env = Array.of_list O.ops.env
  let hypercalls = Array.of_list O.ops.hypercalls
  let guest_ops = Array.of_list O.ops.guest_ops
  let payloads = Array.of_list O.ops.payloads
  let states = Array.of_list O.ops.states

  (* Where an instruction's named op sits in its kind's table (-1: no
     such op, or no named op). A program's names are fixed, so each is
     looked up once per program, not per execution. *)
  let resolve = function
    | Env (_, name, _) -> Scn_ops.index name O.ops.env
    | Hypercall (_, name, _) -> Scn_ops.index name O.ops.hypercalls
    | Guest (name, _) -> Scn_ops.index name O.ops.guest_ops
    | Payload (name, _) -> Scn_ops.index name O.ops.payloads
    | State (name, _) -> Scn_ops.index name O.ops.states
    | _ -> -1

  let fuel = 100_000
  (* Backstop against jump loops in hostile-but-checked programs; the
     corpus programs run tens of instructions. *)

  let run_section (tb : B.t) ~section (instrs : instr array) (ops : int array) : C.attempt =
    let st = { regs = Array.make Scn_ast.num_regs 0L; err = None; rc = None; logs = []; states = [] } in
    let say line = st.logs <- line :: st.logs in
    let len = Array.length instrs in
    (* Scenario-pc edge coverage: when a Coverage collector is attached
       to the testbed's trace, every executed instruction feeds the
       prev-pc -> pc edge (entry edge uses prev = 0xffffff) and emits a
       boundary [Scn_edge] record so replay — which never runs the VM —
       can refeed the same edges from the ring. Detached runs (the
       default, and every golden fixture) are byte-for-byte unchanged. *)
    let tr = B.trace tb in
    let cov = Trace.coverage tr in
    let prev = ref 0xffffff in
    let note_edge pc =
      match cov with
      | None -> ()
      | Some c ->
          Coverage.note_scn_edge c ~section ~prev:!prev ~pc;
          if Trace.recording tr && Trace.top_level tr then
            Trace.emit tr (Trace.Scn_edge { section; prev = !prev; pc });
          prev := pc
    in
    let reg r = st.regs.(r land 0xf) in
    let setr r v = st.regs.(r land 0xf) <- v in
    let port = function Ok () -> st.err <- None | Error e -> st.err <- Some e in
    let u64_bytes v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      b
    in
    let rec step pc budget =
      if pc >= len || budget <= 0 then ()
      else begin
        note_edge pc;
        let next = pc + 1 and budget = budget - 1 in
        match instrs.(pc) with
        | Halt -> ()
        | Goto target -> step target budget
        | If_err target -> step (if st.err <> None then target else next) budget
        | If_neg (r, target) -> step (if reg r < 0L then target else next) budget
        | i ->
            exec ops.(pc) i;
            step next budget
      end
    and exec op = function
      | Set (r, v) -> setr r v
      | Add (r, m, v) -> setr r (Int64.add (reg m) v)
      | Env (r, sym, arg) -> (
          match run "environment symbol" sym env op tb arg with
          | Ok v -> setr r v
          | Error msg -> Scn_ops.trap "env %s: %s" sym msg)
      | Pte_of (r, m, flags) -> setr r (Pte.make ~mfn:(Int64.to_int (reg m)) ~flags)
      | Entry_maddr (r, m, i) -> setr r (entry_maddr ~table:(reg m) ~index:(reg i))
      | Entry_linear (r, m, i) ->
          setr r (Layout.directmap_of_maddr (entry_maddr ~table:(reg m) ~index:(reg i)))
      | Log msg -> say msg
      | Logf (fmt, args) -> say (render fmt (Array.map reg args))
      | Log_errno fmt ->
          let e = match st.err with Some e -> e | None -> Scn_ops.trap "log-errno with no pending error" in
          say (render_errno fmt (Errno.to_string e))
      | Inject (a, addr, value) -> port (B.inject_write tb ~addr:(reg addr) a (u64_bytes (reg value)))
      | Inject_read (r, a, addr) -> (
          match B.inject_read tb ~addr:(reg addr) a ~len:8 with
          | Ok bytes ->
              st.err <- None;
              setr r (Bytes.get_int64_le bytes 0)
          | Error e ->
              st.err <- Some e;
              setr r 0L)
      | Host_write (addr, value) -> (
          match O.ops.host_write with
          | Some write -> port (write tb ~addr:(reg addr) (reg value))
          | None -> Scn_ops.trap "host writes are not exposed on backend %s" B.name)
      | Hypercall (r, name, args) ->
          setr r (run "hypercall" name hypercalls op tb (Array.map reg args))
      | Guest (name, args) -> (
          match run "guest op" name guest_ops op tb (Array.map reg args) with
          | Ok () -> ()
          | Error msg -> Scn_ops.trap "guest op %s: %s" name msg)
      | Payload (name, args) -> run "payload" name payloads op tb ~say (Array.map reg args)
      | State (name, args) ->
          st.states <- run "erroneous state" name states op (Array.map reg args) :: st.states
      | Tick_all -> B.tick_all tb
      | Rc_errno -> (
          match st.err with
          | Some e -> st.rc <- Some (Errno.to_return_code e)
          | None -> Scn_ops.trap "rc-errno with no pending error")
      | Rc_result -> st.rc <- Some (match st.err with None -> 0 | Some e -> Errno.to_return_code e)
      | Rc_reg r -> st.rc <- Some (Int64.to_int (reg r))
      | Rc_none -> st.rc <- None
      | Halt | Goto _ | If_err _ | If_neg _ -> ()
    in
    step 0 fuel;
    { C.transcript = List.rev st.logs; states = List.rev st.states; rc = st.rc }

  (* The section code folds a 7-bit per-program salt over the
     exploit/inject bit (bit 0), so scenarios with identical
     control-flow shapes — straight-line programs of the same length,
     say — still populate distinct coverage edge slots. The full code
     travels in the [Scn_edge] record's section byte, so replay refeeds
     exactly the recorded slots. *)
  let section_code (p : program) ~section =
    let h = ref 0 in
    String.iter (fun ch -> h := ((!h * 131) + Char.code ch) land 0x7f) p.name;
    (!h lsl 1) lor (section land 1)

  (* A program as a campaign use case: because [Campaign.Make] is
     applicative, this is the very same [use_case] type every driver
     of the campaign engine takes. *)
  let use_case (p : program) : C.use_case =
    let exploit_ops = Array.map resolve p.exploit and inject_ops = Array.map resolve p.inject in
    let exploit_code = section_code p ~section:0 and inject_code = section_code p ~section:1 in
    {
      C.uc_name = p.name;
      uc_xsa = p.xsa;
      uc_description = p.description;
      im = Scn_ast.intrusion_model p.model;
      run_exploit = (fun tb -> run_section tb ~section:exploit_code p.exploit exploit_ops);
      run_injection = (fun tb -> run_section tb ~section:inject_code p.inject inject_ops);
    }

  let check p = Scn_check.check O.ops p
  let compatible p = Scn_check.compatible O.ops p.backend
end
