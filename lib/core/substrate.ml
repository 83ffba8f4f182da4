(** The substrate abstraction: what the injection stack needs from a
    hypervisor under test.

    The campaign engine, the trace recorder/replayer and the VMI driver
    are all functors over this signature, so retargeting the whole
    stack onto a new hypervisor means writing one module: how to boot
    it, how to reset it in O(dirty), how its injection port moves bytes
    (a hypercall on Xen PV, an ioctl on KVM), what its host-critical
    structures are, and how to re-drive its recorded boundary events.

    {!Substrate_xen} is the default backend (the original Xen PV
    testbed, wrapped unchanged); [Backend_kvm] in [ii_backends] is the
    hardware-assisted one. *)

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

  val config_label : config -> string
  (** Human form for report headings ("Xen 4.6"). *)

  val config_heading : string
  (** Column title for the configuration in telemetry tables. *)

  val port_heading : string
  (** Column title for the injection-port call counters in telemetry
      tables — what the backend's port actually is ("Hypercalls" on
      Xen PV, "Ioctls" on KVM), so KVM rows are not rendered under a
      Xen-shaped header. *)

  (** {1 The system under test} *)

  type t

  val create : ?frames:int -> ?domains:int -> ?load:Load_mix.t -> config -> t
  (** Boot a fresh testbed: host plus its standard population of
      guests, with a reset checkpoint captured at the end. [?domains]
      is the number of concurrent guest domains (default 2, the
      historical victim + attacker pair); [?load] attaches a
      deterministic background workload every guest runs per scheduler
      round (default {!Load_mix.none}). *)

  val create_pooled : ?frames:int -> ?domains:int -> ?load:Load_mix.t -> config -> t
  (** Like [create], but forked copy-on-write from a process-wide frozen
      template for this configuration (built once, on first use) — the
      warm-pool path campaign workers use so every shard and matrix cell
      costs O(metadata) instead of a full boot. Thread-safe; observably
      equivalent to [create]. Templates are pooled per (config, domains)
      and load-free: the load mix is runtime-only state installed on the
      fork, so pooled ≡ fresh holds for loaded multi-domain testbeds. *)

  val reset : t -> unit
  (** Roll back to the post-boot checkpoint in O(frames dirtied);
      observably equivalent to a fresh [create]. *)

  val trace : t -> Trace.t
  (** The host's tracer — counters and (when enabled) the event ring. *)

  (** {1 Virtual time}

      Every backend owns a deterministic {!Vclock} (embedded in its
      tracer) that per-operation cost models advance; checkpoint,
      reset and pooled forks carry it with machine state. *)

  val vclock : t -> int64
  (** Current virtual time of the machine, in simulated ns. *)

  val set_cost_model : t -> Vclock.Cost_model.t -> unit
  (** Swap the per-operation cost model (e.g. one loaded from a
      cost-model config file). Affects future charges only. *)

  val enable_provenance : t -> unit
  (** Attach a byte-granular taint shadow ({!Provenance}) to the host's
      physical memory, wired to {!trace} so interpretation edges land in
      the event ring when it records. Idempotent; detached by default,
      where every provenance hook is a single option match. *)

  val provenance : t -> Provenance.t option
  (** The attached shadow, if {!enable_provenance} has run. *)

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

  val inject_dm_write : t -> bytes -> (unit, Errno.t) result
  (** The device-model injection surface: write bytes past the FDC FIFO
      end inside the device-model process (the VENOM erroneous state),
      counted and recorded like any injector access. Gated on
      {!install_injector} ([ENOSYS] before it); [ENOSYS] on backends
      without a device model. *)

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

  val violations_by_domain :
    before:snapshot -> after:snapshot -> (string * Monitor.violation list) list
  (** The same violations grouped by the domain each was observed in
      (host-level conditions under ["host"]) — the per-domain blast
      radius rows of multi-domain campaigns. *)

  (** {1 Out-of-band monitoring (VMI)} *)

  val detectors : unit -> t Vmi.Detector.t list
  (** Fresh instances of the backend's detector suite. *)

  (** {1 Trace replay} *)

  val apply_event : t -> Trace.event -> bool
  (** Re-drive one recorded boundary event against a fresh testbed;
      false when it cannot be matched (a desynchronized replay) or is
      not a boundary this backend emits. *)
end
