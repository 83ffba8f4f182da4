(* The scenario language's shared vocabulary (§IV as data).

   A scenario is the paper's intrusion model written down as a loadable
   artifact: a header declaring where the intrusion comes from (trigger
   source), how it reaches the hypervisor (interaction interface), what
   it corrupts (target component / abusive functionality), plus two
   step bodies — the third-party exploit path and the injection path —
   over the shared four-action codec, guest workload ops and named
   library payloads. This module holds the header record, the source
   positions the front end reports errors with, and the name tables the
   parser, the checker and the disassembler share; the program itself
   is {!Scn_bytecode.program}. *)

type pos = { line : int; col : int }

type error = { msg : string; at : pos }

let error_to_string e = Printf.sprintf "%s at line %d, column %d" e.msg e.at.line e.at.col

(* The intrusion-model header, mapped 1:1 onto {!Intrusion_model.t}. *)
type model = {
  m_name : string;
  m_source : Intrusion_model.trigger_source;
  m_interface : Intrusion_model.interface;
  m_target : Intrusion_model.target_component;
  m_functionality : Abusive_functionality.t;
  m_represents : string list;
  m_summary : string;
}

type reg = int (* 0..15; the surface syntax spells r0..r15 and rc (= r15) *)

let num_regs = 16

(* --- small shared vocabularies ----------------------------------------- *)

let sources =
  [
    ("unprivileged-guest", Intrusion_model.Unprivileged_guest);
    ("privileged-guest", Intrusion_model.Privileged_guest);
    ("guest-userspace", Intrusion_model.Guest_userspace);
    ("device-driver", Intrusion_model.Device_driver);
    ("management-interface", Intrusion_model.Management_interface);
  ]

let targets =
  [
    ("memory-management", Intrusion_model.Memory_management_component);
    ("interrupt-virtualization", Intrusion_model.Interrupt_virtualization);
    ("grant-tables", Intrusion_model.Grant_tables_component);
    ("device-model", Intrusion_model.Device_model);
    ("scheduler", Intrusion_model.Scheduler_component);
  ]

let actions =
  [
    ("read-linear", Access.Arbitrary_read_linear);
    ("write-linear", Access.Arbitrary_write_linear);
    ("read-physical", Access.Arbitrary_read_physical);
    ("write-physical", Access.Arbitrary_write_physical);
  ]

let pte_flags =
  [
    ("present", Pte.Present);
    ("rw", Pte.Rw);
    ("user", Pte.User);
    ("pwt", Pte.Pwt);
    ("pcd", Pte.Pcd);
    ("accessed", Pte.Accessed);
    ("dirty", Pte.Dirty);
    ("pse", Pte.Pse);
    ("global", Pte.Global);
    ("avail0", Pte.Avail0);
    ("avail1", Pte.Avail1);
    ("avail2", Pte.Avail2);
    ("nx", Pte.Nx);
  ]

let violation_classes =
  [
    "hypervisor-crash";
    "privilege-escalation";
    "unauthorized-disclosure";
    "integrity-violation";
    "guest-crash";
    "availability-degradation";
  ]

let violation_class = function
  | Monitor.Hypervisor_crash _ -> "hypervisor-crash"
  | Monitor.Privilege_escalation _ -> "privilege-escalation"
  | Monitor.Unauthorized_disclosure _ -> "unauthorized-disclosure"
  | Monitor.Integrity_violation _ -> "integrity-violation"
  | Monitor.Guest_crash _ -> "guest-crash"
  | Monitor.Availability_degradation _ -> "availability-degradation"

(* The surface name of a value; every table above lists each
   constructor of its type. *)
let name_of v l = fst (List.find (fun (_, x) -> x = v) l)

let intrusion_model (m : model) =
  Intrusion_model.make ~name:m.m_name ~source:m.m_source ~interface:m.m_interface
    ~target:m.m_target ~functionality:m.m_functionality
    ~representative_of:m.m_represents m.m_summary
