type target_class =
  | Idt_gates
  | Page_table_entries
  | M2p_entries
  | Arbitrary_physical
  | Soft_error_bit_flip
  | Component_hooks

let target_to_string = function
  | Idt_gates -> "idt-gates"
  | Page_table_entries -> "page-table-entries"
  | M2p_entries -> "m2p-entries"
  | Arbitrary_physical -> "arbitrary-physical"
  | Soft_error_bit_flip -> "soft-error-bit-flip"
  | Component_hooks -> "component-hooks"

let all_targets =
  [
    Idt_gates; Page_table_entries; M2p_entries; Arbitrary_physical; Component_hooks;
    Soft_error_bit_flip;
  ]

let intrusion_targets =
  [ Idt_gates; Page_table_entries; M2p_entries; Arbitrary_physical; Component_hooks ]

type outcome_class = Crashed | Violated | State_only | No_effect | Refused

let outcome_to_string = function
  | Crashed -> "crashed"
  | Violated -> "violated"
  | State_only -> "state-only (handled)"
  | No_effect -> "no effect"
  | Refused -> "refused"

let all_outcomes = [ Crashed; Violated; State_only; No_effect; Refused ]

type trial = {
  index : int;
  target : target_class;
  t_addr : int64;
  t_value : int64;
  outcome : outcome_class;
  t_violations : Monitor.violation list;
}

type summary = {
  s_version : Version.t;
  s_seed : int64;
  s_trials : int;
  tally : (outcome_class * int) list;
  trials : trial list;
}

(* One word-aligned machine address + value within the target class. *)
let synthesize rng (tb : Testbed.t) target =
  let hv = tb.Testbed.hv in
  let frames = Phys_mem.total_frames hv.Hv.mem in
  match target with
  | Idt_gates ->
      (* bias towards the exception vectors a running system exercises *)
      let vector = Prng.int rng ~bound:33 in
      let addr =
        Int64.add (Addr.maddr_of_mfn hv.Hv.idt_mfn) (Int64.of_int (Idt.handler_offset vector))
      in
      (addr, Prng.int64 rng)
  | Page_table_entries ->
      let dom = Kernel.dom tb.Testbed.attacker in
      let table = Prng.choose rng dom.Domain.pt_pages in
      let index = Prng.int rng ~bound:Addr.entries_per_table in
      let mfn = Prng.int rng ~bound:frames in
      let flags = Int64.of_int (Prng.int rng ~bound:0x1000) in
      let value = Int64.logor (Addr.maddr_of_mfn mfn) flags in
      (Int64.add (Addr.maddr_of_mfn table) (Int64.of_int (8 * index)), value)
  | M2p_entries ->
      let frame = hv.Hv.m2p_mfns.(Prng.int rng ~bound:(Array.length hv.Hv.m2p_mfns)) in
      let index = Prng.int rng ~bound:(Addr.page_size / 8) in
      (Int64.add (Addr.maddr_of_mfn frame) (Int64.of_int (8 * index)), Prng.int64 rng)
  | Arbitrary_physical | Soft_error_bit_flip ->
      let mfn = Prng.int rng ~bound:frames in
      let index = Prng.int rng ~bound:(Addr.page_size / 8) in
      (Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int (8 * index)), Prng.int64 rng)
  | Component_hooks ->
      (* addr selects the hook, value its parameter *)
      (Int64.of_int (Prng.int rng ~bound:4), Prng.int64 rng)

(* The activation workload: let every domain schedule, exercise guest
   memory, take a page fault (through the possibly-corrupted IDT) and a
   benign hypercall. *)
let activate (tb : Testbed.t) =
  Testbed.tick_all tb;
  let k = tb.Testbed.attacker in
  (* the timer fires on every scheduling round *)
  ignore (Hv.deliver_fault tb.Testbed.hv ~vector:32 ~detail:"timer interrupt");
  ignore (Kernel.write_u64 k (Domain.kernel_vaddr_of_pfn 6) 0xA11CEL);
  ignore (Kernel.read_u64 k (Domain.kernel_vaddr_of_pfn 6));
  ignore (Kernel.read_u64 k 0x0000_00ba_d000_0000L);
  ignore (Kernel.hypercall_rc k (Hypercall.Console_io "campaign tick"));
  Testbed.tick_all tb

(* Non-memory injector hooks, exercised through the catalog's component
   interfaces. Returns the vcpu a hang hook stopped: it is released
   after observation so trials stay independent (a real campaign would
   reboot). *)
let run_hook (tb : Testbed.t) choice =
  let hv = tb.Testbed.hv in
  let victim = Kernel.dom tb.Testbed.victim in
  match Int64.to_int choice land 3 with
  | 0 ->
      ignore (Sched.hang_vcpu hv.Hv.sched ~dom:victim.Domain.id ~reason:"fuzzed hang");
      Some victim.Domain.id
  | 1 ->
      ignore (Event_channel.force_pending_all victim.Domain.events);
      None
  | 2 ->
      Xenstore.inject_write hv.Hv.xenstore
        (Xenstore.domain_path victim.Domain.id "memory/target")
        "48";
      None
  | _ ->
      ignore (Hv.exhaust_memory hv ~leave:(Phys_mem.free_frames hv.Hv.mem / 4));
      None

(* Put the synthesized erroneous state in place: [Error] when the
   injector refuses the target, otherwise the vcpu to unhang once the
   trial has been observed. *)
let inject (tb : Testbed.t) target addr value =
  let mem = tb.Testbed.hv.Hv.mem in
  match target with
  | Component_hooks -> Ok (run_hook tb addr)
  | Soft_error_bit_flip ->
      (* an accidental fault: flip one bit directly, no injector *)
      let bit = Int64.to_int (Int64.logand value 63L) in
      let word = Phys_mem.read_u64 mem addr in
      Phys_mem.write_u64 mem addr (Int64.logxor word (Int64.shift_left 1L bit));
      Ok None
  | Idt_gates | Page_table_entries | M2p_entries | Arbitrary_physical -> (
      match
        Injector.write_u64 tb.Testbed.attacker ~addr ~action:Injector.Arbitrary_write_physical value
      with
      | Ok () -> Ok None
      | Error e -> Error e)

let is_crash = function Monitor.Hypervisor_crash _ -> true | _ -> false

(* Per-trial PRNG seeding (a splitmix64-style mix of campaign seed and
   trial index): every trial owns an independent random stream, so
   trials can run in any order — or on any worker — and still draw
   exactly the sequential run's numbers. *)
let trial_seed seed index =
  let z = Int64.add seed (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A worker is one long-lived testbed, reset between trials by
   {!Campaign.trial} in O(dirty pages). *)
type worker = Testbed.t

let make_worker ?(pooled = false) version =
  if pooled then Testbed.create_pooled version else Testbed.create version

let no_attempt = { Campaign.transcript = []; states = []; rc = None }

(* One randomized trial as a driver of {!Campaign.trial}: the act
   synthesizes a state in the target class (after the reset, from the
   pristine testbed), injects it and, unless the injector refused it,
   activates. The row's violations and a read-back of live memory then
   classify the outcome. *)
let run_one (tb : worker) ~seed ~targets index =
  let rng = Prng.create ~seed:(trial_seed seed index) in
  let target = Prng.choose rng targets in
  let hv = tb.Testbed.hv in
  let drawn = ref None in
  let row =
    Campaign.trial tb ~name:(target_to_string target) Campaign.Injection hv.Hv.version (fun tb ->
        let addr, value = synthesize rng tb target in
        let injected = inject tb target addr value in
        if Result.is_ok injected then activate tb;
        drawn := Some (addr, value, injected);
        no_attempt)
  in
  let addr, value, injected = Option.get !drawn in
  let violations = row.Campaign.r_violations in
  let outcome =
    match injected with
    | Error _ -> Refused
    | Ok _ when List.exists is_crash violations -> Crashed
    | Ok _ when violations <> [] -> Violated
    | Ok _ -> (
        match target with
        | Idt_gates | Page_table_entries | M2p_entries | Arbitrary_physical
          when Phys_mem.read_u64 hv.Hv.mem addr = value ->
            (* the corruption still sits in live state: it was neither
               scrubbed nor overwritten during activation *)
            State_only
        | _ -> No_effect)
  in
  (match injected with
  | Ok (Some dom) -> ignore (Sched.unhang_vcpu hv.Hv.sched ~dom)
  | Ok None | Error _ -> ());
  { index; target; t_addr = addr; t_value = value; outcome; t_violations = violations }

let tally_of trials_list =
  List.map
    (fun o -> (o, List.length (List.filter (fun t -> t.outcome = o) trials_list)))
    all_outcomes

let render summaries =
  let header =
    "Version" :: List.map outcome_to_string all_outcomes
  in
  let rows =
    List.map
      (fun s ->
        Version.to_string s.s_version
        :: List.map (fun o -> string_of_int (List.assoc o s.tally)) all_outcomes)
      summaries
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Randomized injection campaign (%d trials per version, seed %Ld): outcome tally"
         (match summaries with s :: _ -> s.s_trials | [] -> 0)
         (match summaries with s :: _ -> s.s_seed | [] -> 0L))
    ~header rows
