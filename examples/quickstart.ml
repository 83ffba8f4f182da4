(* Quickstart: boot a simulated Xen host, install the intrusion
   injector, drive one erroneous state in, and watch the monitor decide
   whether a security violation followed.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A testbed: Xen 4.8, dom0 ("xen3"), a victim guest and an
        attacker-controlled guest — the paper's §VI environment. *)
  let tb = Testbed.create Version.V4_8 in
  Printf.printf "booted Xen %s with %d domains\n"
    (Version.to_string tb.Testbed.hv.Hv.version)
    (List.length tb.Testbed.hv.Hv.domains);

  (* 2. Pick an intrusion model and write the trial's act: corrupt the
        page-fault gate of the IDT, the XSA-212-crash erroneous state,
        through the injector's arbitrary-access hypercall. *)
  let im =
    Intrusion_model.make ~name:"IM-write-arbitrary-memory"
      ~source:Intrusion_model.Unprivileged_guest
      ~interface:(Intrusion_model.Hypercall_interface "arbitrary_access")
      ~target:Intrusion_model.Memory_management_component
      ~functionality:Abusive_functionality.Write_unauthorized_arbitrary_memory
      ~representative_of:[ "XSA-212" ]
      "Overwrite a descriptor-table handler from an unprivileged guest."
  in
  let act (tb : Testbed.t) =
    let k = tb.Testbed.attacker in
    let gate =
      Int64.add (Kernel.sidt k) (Int64.of_int (Idt.handler_offset Idt.vector_page_fault))
    in
    (match Injector.write_u64 k ~addr:gate ~action:Injector.Arbitrary_write_linear 0xbad_c0deL with
    | Ok () -> ()
    | Error e -> failwith (Errno.to_string e));
    (* activate: any guest page fault now goes through the corrupt gate *)
    ignore (Kernel.read_u64 k 0xdead_0000L);
    {
      Campaign.transcript = [ "IDT page-fault gate overwritten; fault triggered" ];
      states = [ Erroneous_state.Idt_gate_corrupted { vector = Idt.vector_page_fault } ];
      rc = None;
    }
  in

  (* 3. Run one Fig-2 trial: the executor resets the testbed, installs
        the injector (a new hypercall in the call table), snapshots the
        monitor, runs the act, audits the declared states and diffs the
        snapshots into security violations. *)
  let r = Campaign.trial tb ~name:im.Intrusion_model.im_name Campaign.Injection Version.V4_8 act in
  Format.printf "intrusion model: %a@." Intrusion_model.pp im;
  Printf.printf "injector: hypercall %d (%s)\n" Injector.hypercall_number Injector.hypercall_name;
  List.iter (Printf.printf "erroneous state: %s\n") r.Campaign.r_transcript;
  Printf.printf "audit: %s: %s\n"
    (String.concat ", " (List.map Erroneous_state.describe r.Campaign.r_states))
    (if r.Campaign.r_state then "present" else "absent");
  (match r.Campaign.r_violations with
  | [] -> print_endline "monitor: no security violation: the system handled the erroneous state"
  | vs -> List.iter (fun v -> Printf.printf "monitor: %s\n" (Monitor.violation_to_string v)) vs);
  print_newline ();

  (* 4. The Xen console shows what the operator would see. *)
  print_endline "--- Xen console ---";
  List.iter print_endline (Hv.console_lines tb.Testbed.hv)
