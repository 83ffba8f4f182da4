(* The bytecode VM: a stack-free register machine executing compiled
   scenarios against any {!Substrate.S} through its OPS table.

   Sixteen 64-bit registers, one error flag (the last injection-port or
   host-write errno), one return-code slot, a transcript accumulator
   and a declared-states accumulator — exactly the state a hand-written
   use case threads through its closure, made explicit. Each section
   (exploit, inject) runs start-to-[halt]/end and folds into a
   {!Campaign.Make.attempt}, so a compiled scenario drops into every
   consumer of campaign use cases — the campaign engine, the scheduler,
   the trace/VMI drivers, attribution — without those layers knowing
   bytecode exists.

   The VM assumes checked bytecode ({!Scn_check.check}); a dispatch the
   checker would have refused raises {!Scn_ops.Trap}. *)

open Scn_bytecode

(* Same arithmetic as [Toolkit.entry_maddr]/[entry_linear], inlined so
   the VM does not depend upward on the exploit library. *)
let entry_maddr ~table ~index =
  Int64.add (Addr.maddr_of_mfn (Int64.to_int table)) (Int64.mul 8L index)

module Make (O : Scn_ops.OPS) = struct
  module B = O.B

  (* Applied to [O.B] directly (not the [B] alias above): applicative
     functor paths only normalize through true module aliases, and
     [Scenario_xen.B = Substrate_xen] is one — so [C.use_case] is the
     very type the legacy modules and the top-level [Campaign] build,
     and scenarios flow into every downstream driver unchanged. *)
  module C = Campaign.Make (O.B)

  type st = {
    regs : int64 array;
    mutable err : Errno.t option;
    mutable rc : int option;
    mutable logs : string list;  (* reversed *)
    mutable states : B.state_spec list;  (* reversed *)
  }

  let fuel = 100_000
  (* Backstop against jump loops in hostile-but-checked bytecode; the
     corpus programs run tens of instructions. *)

  let run_section (tb : B.t) ~section (p : program) (instrs : instr array) : C.attempt =
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
    let args i =
      Array.init i.n (fun k -> reg (match k with 0 -> i.a | 1 -> i.b | _ -> i.c))
    in
    let action i =
      match Access.of_code i.imm with
      | Some a -> a
      | None -> Scn_ops.trap "invalid action code %Ld" i.imm
    in
    let u64_bytes v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      b
    in
    let rec step pc budget =
      if pc >= len || budget <= 0 then ()
      else begin
        note_edge pc;
        let i = instrs.(pc) in
        let next = pc + 1 in
        let s = str p i.sid in
        if i.op = op_halt then ()
        else if i.op = op_loadi then (
          setr i.a i.imm;
          step next (budget - 1))
        else if i.op = op_add then (
          setr i.a (Int64.add (reg i.b) i.imm);
          step next (budget - 1))
        else if i.op = op_env then (
          (match O.env tb s i.imm with
          | Ok v -> setr i.a v
          | Error msg -> Scn_ops.trap "env %s: %s" s msg);
          step next (budget - 1))
        else if i.op = op_pte then (
          setr i.a (Pte.make ~mfn:(Int64.to_int (reg i.b)) ~flags:(pte_unmask i.imm));
          step next (budget - 1))
        else if i.op = op_emaddr then (
          setr i.a (entry_maddr ~table:(reg i.b) ~index:(reg i.c));
          step next (budget - 1))
        else if i.op = op_elin then (
          setr i.a (Layout.directmap_of_maddr (entry_maddr ~table:(reg i.b) ~index:(reg i.c)));
          step next (budget - 1))
        else if i.op = op_log then (
          say s;
          step next (budget - 1))
        else if i.op = op_logf1 then (
          say (render s [| reg i.a |]);
          step next (budget - 1))
        else if i.op = op_logf2 then (
          say (render s [| reg i.a; reg i.b |]);
          step next (budget - 1))
        else if i.op = op_logerr then (
          let e = match st.err with Some e -> e | None -> Scn_ops.trap "log-errno with no pending error" in
          say (render_errno s (Errno.to_string e));
          step next (budget - 1))
        else if i.op = op_inject then (
          (match B.inject_write tb ~addr:(reg i.a) (action i) (u64_bytes (reg i.b)) with
          | Ok () -> st.err <- None
          | Error e -> st.err <- Some e);
          step next (budget - 1))
        else if i.op = op_injectr then (
          (match B.inject_read tb ~addr:(reg i.b) (action i) ~len:8 with
          | Ok bytes ->
              st.err <- None;
              setr i.a (Bytes.get_int64_le bytes 0)
          | Error e ->
              st.err <- Some e;
              setr i.a 0L);
          step next (budget - 1))
        else if i.op = op_hostw then (
          (match O.host_write tb ~addr:(reg i.a) (reg i.b) with
          | Ok () -> st.err <- None
          | Error e -> st.err <- Some e);
          step next (budget - 1))
        else if i.op = op_hc then (
          let hc_args = Array.init i.n (fun k -> reg (if k = 0 then i.b else i.c)) in
          (match O.hypercall tb s hc_args with
          | Ok rc -> setr i.a rc
          | Error msg -> Scn_ops.trap "hypercall %s: %s" s msg);
          step next (budget - 1))
        else if i.op = op_guest then (
          (match O.guest_op tb s (args i) with
          | Ok () -> ()
          | Error msg -> Scn_ops.trap "guest op %s: %s" s msg);
          step next (budget - 1))
        else if i.op = op_payload then (
          (match O.payload tb ~say s (args i) with
          | Ok () -> ()
          | Error msg -> Scn_ops.trap "payload %s: %s" s msg);
          step next (budget - 1))
        else if i.op = op_state then (
          (match O.state tb s (args i) with
          | Ok spec -> st.states <- spec :: st.states
          | Error msg -> Scn_ops.trap "state %s: %s" s msg);
          step next (budget - 1))
        else if i.op = op_tick then (
          B.tick_all tb;
          step next (budget - 1))
        else if i.op = op_jmp then step (Int64.to_int i.imm) (budget - 1)
        else if i.op = op_jerr then
          step (if st.err <> None then Int64.to_int i.imm else next) (budget - 1)
        else if i.op = op_jneg then
          step (if reg i.a < 0L then Int64.to_int i.imm else next) (budget - 1)
        else if i.op = op_rcerr then (
          (match st.err with
          | Some e -> st.rc <- Some (Errno.to_return_code e)
          | None -> Scn_ops.trap "rc-errno with no pending error");
          step next (budget - 1))
        else if i.op = op_rcres then (
          st.rc <- Some (match st.err with None -> 0 | Some e -> Errno.to_return_code e);
          step next (budget - 1))
        else if i.op = op_rcreg then (
          st.rc <- Some (Int64.to_int (reg i.a));
          step next (budget - 1))
        else if i.op = op_rcnone then (
          st.rc <- None;
          step next (budget - 1))
        else Scn_ops.trap "unknown opcode %d at pc %d" i.op pc
      end
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
    String.iter (fun ch -> h := ((!h * 131) + Char.code ch) land 0x7f) (name p);
    (!h lsl 1) lor (section land 1)

  (* A compiled program as a campaign use case: because [Campaign.Make]
     is applicative, this is the very same [use_case] type the legacy
     modules build, so everything downstream of the campaign engine
     accepts scenarios unchanged. *)
  let use_case (p : program) : C.use_case =
    {
      C.uc_name = name p;
      uc_xsa = xsa p;
      uc_description = description p;
      im = intrusion_model p;
      run_exploit = (fun tb -> run_section tb ~section:(section_code p ~section:0) p p.exploit);
      run_injection = (fun tb -> run_section tb ~section:(section_code p ~section:1) p p.inject);
    }

  let check p = Scn_check.check O.caps p
  let compatible p = Scn_check.compatible O.caps p.header.h_backend
end
