(* "Porting erroneous states" (§III-C): evaluate how hypervisor A would
   be affected by a vulnerability class observed in hypervisor B, by
   modelling B's advisory as an intrusion model and injecting the
   corresponding erroneous state into A.

   Here the foreign advisory is a KVM-style device-model escape
   (VENOM-class: CVE-2015-3456 affected QEMU under KVM, Xen and
   VirtualBox alike). We derive its abusive functionality from the
   advisory corpus, port it to a descriptor-table corruption in Xen,
   and run the injection across all three versions.

   Run with:  dune exec examples/porting_states.exe *)

module Af = Abusive_functionality

let () =
  (* 1. Start from the foreign advisory's classification. *)
  let venom = Option.get (Ii_advisory.Corpus.find_xsa 133) in
  Printf.printf "foreign advisory: %s (%s)\n" venom.Ii_advisory.Corpus.cve
    venom.Ii_advisory.Corpus.title;
  let afs = Ii_advisory.Classify.classify venom in
  Printf.printf "classified abusive functionality: %s\n\n"
    (String.concat ", " (List.map Af.to_string afs));

  (* 2. Instantiate an IM for the *target* system (Xen) preserving the
        abusive functionality but mapping the interface. *)
  let im =
    Intrusion_model.make ~name:"IM-ported-venom"
      ~source:Intrusion_model.Unprivileged_guest
      ~interface:(Intrusion_model.Hypercall_interface "arbitrary_access")
      ~target:Intrusion_model.Memory_management_component
      ~functionality:(List.hd afs)
      ~representative_of:[ venom.Ii_advisory.Corpus.cve ]
      "Ported from a device-model overflow: unauthorized write into hypervisor-held memory."
  in
  Format.printf "ported intrusion model:@.%a@.@." Intrusion_model.pp_long im;

  (* 3. Inject the corresponding erroneous state (corruption of memory
        the hypervisor relies on — here, a descriptor-table handler)
        into each Xen version and compare. *)
  List.iter
    (fun version ->
      let r =
        Campaign.trial (Testbed.create version) ~name:"ported-venom" Campaign.Injection version
          (fun tb ->
            let k = tb.Testbed.attacker in
            let gate =
              Int64.add (Kernel.sidt k) (Int64.of_int (Idt.handler_offset Idt.vector_page_fault))
            in
            (match
               Injector.write_u64 k ~addr:gate ~action:Injector.Arbitrary_write_linear 0x1337L
             with
            | Ok () -> ()
            | Error e -> failwith (Errno.to_string e));
            ignore (Kernel.read_u64 k 0xdead_0000L);
            {
              Campaign.transcript = [];
              states = [ Erroneous_state.Idt_gate_corrupted { vector = Idt.vector_page_fault } ];
              rc = None;
            })
      in
      Printf.printf "Xen %-5s state=%-7s violations=[%s]\n" (Version.to_string version)
        (if r.Campaign.r_state then "present" else "absent")
        (String.concat "; " (List.map Monitor.violation_to_string r.Campaign.r_violations)))
    Version.all;
  print_newline ();
  print_endline
    "The ported state injects identically everywhere: for this class, none of the\n\
     versions carries a specific defence — a finding a cloud provider could only\n\
     obtain by porting the foreign vulnerability's *effects*, since the foreign\n\
     exploit itself does not run against Xen."
