(** The substrate abstraction: what the injection stack needs from a
    hypervisor under test.

    The campaign engine, the trace recorder/replayer and the VMI driver
    are all functors over this signature, so retargeting the whole
    stack onto a new hypervisor means writing one module: how to fork
    a testbed from its warm pool, how to reset it in O(dirty), how its
    injection port moves bytes (a hypercall on Xen PV, an ioctl on
    KVM), what its host-critical structures are, and how to re-drive
    its recorded boundary events.

    Every driver takes its testbed from {!S.create_pooled}; a backend's
    boot function stays outside the signature, where it builds the
    pool's templates.

    {!Substrate_xen} is the default backend (the Xen PV testbed);
    [Backend_kvm] in [ii_backends] is the hardware-assisted one. *)

module type S = sig
  val name : string
  (** Short machine-readable backend id (["xen"], ["kvm"]). *)

  val description : string

  (** {1 Configurations}

      The key a campaign varies per backend: the hypervisor version on
      Xen ("the only difference was the Xen version"), the build
      flavour elsewhere. *)

  type config

  val configs : config list
  (** Every configuration the backend can boot, campaign order. *)

  val rq1_config : config
  (** The configuration RQ1 validation runs on (the one the real
      exploits were written against). *)

  val config_to_string : config -> string
  (** Short form for table columns and JSON ("4.6", "stock"). *)

  val config_of_string : string -> config option

  val config_heading : string
  (** Column title for the configuration in telemetry tables; with
      {!config_to_string}, the human form for report headings ("Xen
      4.6", {!Campaign.Make.config_label}). *)

  val port_heading : string
  (** Column title for the injection-port call counters in telemetry
      tables — what the backend's port actually is ("Hypercalls" on
      Xen PV, "Ioctls" on KVM), so KVM rows are not rendered under a
      Xen-shaped header. *)

  (** {1 The system under test} *)

  type t

  val create_pooled : ?domains:int -> ?load:Load_mix.t -> config -> t
  (** A testbed — host plus its standard population of guests — forked
      copy-on-write from a process-wide frozen template for this
      configuration, booted once, on first use: the one way every
      driver gets a testbed, so each costs O(metadata) instead of a
      full boot. Thread-safe. [?domains] is the number of concurrent
      guest domains (default 2, victim + attacker); [?load] attaches a
      deterministic background workload every guest runs per scheduler
      round (default {!Load_mix.none}). Templates are pooled per
      (config, domains) and load-free: the load mix is runtime-only
      state installed on the fork. *)

  val reset : t -> unit
  (** Roll back to the fork's starting state in O(frames dirtied);
      observably equivalent to a new [create_pooled]. *)

  val trace : t -> Trace.t
  (** The host's tracer: counters, the deterministic {!Vclock} that
      per-operation cost models advance, and (when enabled) the event
      ring. [reset] rewinds its counters and clock to the checkpoint's
      {!Trace.mark}, and a pooled fork starts from it ({!Trace.fork}),
      so virtual time is [Trace.vts (trace t)] and the cost model is
      swapped with [Vclock.set_model (Trace.vclock (trace t))] on every
      backend. *)

  val mem : t -> Phys_mem.t
  (** The host's physical memory. A byte-granular taint shadow attaches
      to it with [Phys_mem.enable_provenance (mem t) ~tr:(trace t)]. *)

  val tick_all : t -> unit
  (** One scheduler round over every guest. *)

  (** {1 The injection port}

      The four-action {!Access.action} surface of §V, reached however
      the backend reaches its host: Xen adds a hypercall to the call
      table, KVM exposes an ioctl. Scripts written against these two
      entry points port across backends verbatim. *)

  val install_injector : t -> unit
  (** Idempotent; a no-op for backends whose port is always present. *)

  val inject_write :
    t -> addr:int64 -> Access.action -> bytes -> (unit, Errno.t) result

  val inject_read :
    t -> addr:int64 -> Access.action -> len:int -> (bytes, Errno.t) result

  (** {1 Erroneous-state auditing} *)

  type state_spec
  (** The backend's vocabulary of injectable erroneous states. *)

  val audit : t -> state_spec -> Erroneous_state.audit
  (** Does the state hold in live machine state right now? *)

  (** {1 Security-violation monitoring} *)

  type snapshot

  val snapshot : t -> snapshot
  val violations : before:snapshot -> after:snapshot -> Monitor.violation list
  (** Diff two snapshots into the shared violation vocabulary
      ({!Monitor.violation}), so rows compare across backends. *)

  val violations_tagged :
    before:snapshot -> after:snapshot -> (string * Monitor.violation) list
  (** The same violations, in the same order, each tagged with the
      domain it was observed in (host-level conditions under
      ["host"]). {!Monitor.by_domain} groups them into the per-domain
      blast radius rows of multi-domain campaigns. *)

  (** {1 Out-of-band monitoring (VMI)} *)

  val detectors : unit -> t Vmi.Detector.t list
  (** Fresh instances of the backend's detector suite. *)

  (** {1 Trace replay} *)

  val apply_event : t -> Trace.event -> bool
  (** Re-drive one recorded boundary event against a new testbed;
      false when it cannot be matched (a desynchronized replay) or is
      not a boundary this backend emits. Scenario-VM edges
      ([Trace.Scn_edge]) never reach it: the replay driver refeeds
      them itself, the same way on every backend. *)
end
