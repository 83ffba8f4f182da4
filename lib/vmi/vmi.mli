(** Out-of-band virtual machine introspection.

    A VMI agent on a real host reads [/dev/mem] (or maps the guest's
    frames) and reconstructs semantic state — page-table graphs, the
    IDT, the M2P — from raw bytes, without any cooperation from the
    monitored software. This library does exactly that against the
    simulated machine: every reconstruction in {!View} goes through
    {!Phys_mem.frame_ro} and the read-only accessors, so a scan can
    never perturb the system it observes (pinned by a test: a trial's
    final snapshot is identical with detectors on and off).

    On top of the views sits a pluggable {!Detector} abstraction — the
    monitoring tools the paper's intrusion-injection campaigns are meant
    to assess — and a {!Scheduler} that scans at every campaign trial
    step (or at a virtual-time rate) and reports {e detection latency}:
    the virtual timestamp at which each detector first fired, with the
    trace sequence number that orders it against the injector's access
    records. *)

(** {1 Semantic views over raw frames} *)

module View : sig
  val frame_hash : Hv.t -> Addr.mfn -> int64
  (** FNV-1a of the frame contents ({!Phys_mem.frame_hash}). *)

  val idt_gates : Hv.t -> (int * Idt.gate) list
  (** The present gates of the in-memory IDT, by vector. *)

  (** The page-table graph reachable from a domain's root, rebuilt from
      frame bytes exactly as hardware would walk them — forged entries
      and superpage aliases included. *)
  type pt_graph = {
    g_nodes : (Addr.mfn * int) list;
        (** table frames and the deepest level each was visited at *)
    g_leaves : (Addr.vaddr * Addr.mfn * bool) list;
        (** (virtual address, target frame, cumulatively-writable) for
            every 4 KiB translation; a level-2 PSE superpage contributes
            one leaf per covered frame *)
    g_frames_read : int;  (** table frames visited (the scan cost) *)
  }

  val pt_graph : Hv.t -> Domain.t -> pt_graph

  val exposure_count : Hv.t -> pt_graph -> int
  (** How many leaves give guest-privilege code a writable window onto a
      sensitive frame: the leaf is writable along its whole path, the
      virtual address is guest-writable under the version's
      {!Layout.guest_access} policy, and the target is a page-table
      frame (a graph node), Xen-owned, or carries a live table type in
      {!Page_info}. This is the erroneous-state signature of the
      XSA-148 / XSA-182 / XSA-212-priv use cases. *)

  val m2p_raw : Hv.t -> Addr.mfn -> int64
  (** The raw M2P entry for [mfn], read from table bytes. *)

  val m2p_mismatches : Hv.t -> (int * Addr.mfn * Addr.pfn) list
  (** P2M/M2P inconsistencies: [(domid, mfn, pfn)] for every populated
      P2M slot whose M2P entry does not map back to it. *)
end

(** {1 Detectors} *)

module Detector : sig
  type scan_result = {
    findings : string list;  (** human-readable anomaly descriptions *)
    frames_read : int;  (** deterministic cost proxy for this scan *)
  }

  (** One monitoring strategy over a machine state ['st] (an {!Hv.t}
      for the Xen detectors below; other substrates supply their own
      state type). [arm] captures whatever baseline the strategy needs
      from a known-good system; [scan] re-derives the view and reports
      anomalies. Both must be side-effect-free on the machine (reads
      only). *)
  type 'st t = { name : string; arm : 'st -> unit; scan : 'st -> scan_result }

  val contramap : ('b -> 'a) -> 'a t -> 'b t
  (** Adapt a detector to a larger state by projecting out the part it
      scans (e.g. an [Hv.t] detector over a whole testbed). *)

  val integrity_hasher : unit -> Hv.t t
  (** Baseline FNV-1a hashes over the hypervisor-critical frames (IDT,
      Xen text, the M2P table); fires when any hash changes. *)

  val idt_gate_auditor : unit -> Hv.t t
  (** Invariant-based (no baseline): fires on any present gate whose
      handler is not a registered Xen entry point. *)

  val pt_exposure_scanner : unit -> Hv.t t
  (** Per-domain baseline of {!View.exposure_count}; fires when a
      domain's writable-exposure count rises above it. *)

  val m2p_inverse_checker : unit -> Hv.t t
  (** Baseline count of {!View.m2p_mismatches}; fires on increase. *)

  val liveness : unit -> Hv.t t
  (** Heartbeat: fires on hypervisor crash, watchdog-visible scheduler
      stall growth, newly hung vcpus or newly crashed domains. *)

  val all : unit -> Hv.t t list
  (** Fresh instances of every detector, in a fixed order. *)
end

(** {1 Scan scheduling and latency} *)

module Scheduler : sig
  type 'st t

  val create :
    ?every_ns:int64 ->
    ?registry:Metrics.registry ->
    'st Detector.t list ->
    'st t
  (** Without [every_ns] every {!step} scans. When [every_ns] is given
      the scheduler is {e rate-based}: the first step scans, and a later
      step scans iff the machine's virtual clock ({!Trace.vts}) has
      reached the deadline armed [every_ns] simulated ns after the
      previous scan. Because the deadline is a pure function of the
      deterministic clock, sharded/pooled campaigns fire scans at
      identical virtual instants. When [registry] is given, every scan
      publishes [vmi_scans_total]/[vmi_findings_total] (labelled by
      detector) and the [vmi_scan_frames] histogram. *)

  val arm : 'st t -> 'st -> unit
  (** Arm every detector against the current (known-good) state. *)

  val step : 'st t -> Trace.t -> 'st -> unit
  (** One interleaving point in a trial; scans always, or, in
      rate-based mode, when the virtual-time deadline has passed.
      [Trace.t] is where scan records and counters
      land — the monitored system's trace, passed explicitly since
      ['st] is opaque here. *)

  val scan_now : 'st t -> Trace.t -> 'st -> unit
  (** Run every detector once: emits a [Vmi_scan] trace record and bumps
      the VMI counters per detector, and records the first firing
      sequence number and virtual timestamp per detector. *)

  val scans_run : 'st t -> int
  val frames_read : 'st t -> int

  val scan_cost_ns : 'st t -> int64
  (** Cumulative virtual cost of every scan so far: frames read priced
      at the trace's {!Vclock.Cost_model} [Vmi_scan_frame] rate. Scans
      are out-of-band observers, so this accrues here and is {e never}
      charged to the machine's clock — tracing-off neutrality and
      replay determinism depend on that. *)

  val first_fire : 'st t -> (string * int) list
  (** [(detector, seq)] for each detector that has fired, in firing
      order. [seq] is the trace sequence number captured just before the
      scan's own record — comparable against [Injector_access] records
      in the same trace. Only meaningful while the ring is recording. *)

  val first_fire_vts : 'st t -> (string * int64) list
  (** [(detector, vts)] analogue of {!first_fire}: the machine's virtual
      timestamp (ns) captured just before the scan's own record, so
      [fire - inject] is a detection latency in simulated ns.
      Meaningful whenever the clock is attached, recording or not. *)

  val findings : 'st t -> (string * string list) list
  (** Cumulative distinct findings per detector (firing order). *)
end
