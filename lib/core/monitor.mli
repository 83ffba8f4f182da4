(** System monitoring (the final stage of Fig 2).

    A security violation "may happen or not, depending on the capacity
    of the system to deal with intrusions" (§IV-A); the monitor decides
    which by comparing snapshots of the whole testbed taken before and
    after an exploit or an injection. *)

type violation =
  | Hypervisor_crash of string  (** panic reason *)
  | Privilege_escalation of string  (** evidence *)
  | Unauthorized_disclosure of string
  | Integrity_violation of string
      (** a hypervisor integrity invariant broke: a guest holds a
          reachable writable mapping of a page-table page *)
  | Guest_crash of string
  | Availability_degradation of string

type snapshot = {
  crashed : bool;
  crash_reason : string option;
  root_artifacts : (string * string) list;  (** (host, path) of root-owned files *)
  root_shells : (string * string) list;  (** (victim host, remote host) *)
  disclosed : string list;  (** secrets visible outside their domain *)
  guest_crashes : string list;
  pending_events : (string * int) list;
  pt_exposure : (string * int) list;
      (** per host: guest-reachable writable mappings of page-table
          frames, found by walking the live tables like the MMU would
          and filtering by the version's address-space layout *)
  m2p_mismatches : int;
      (** populated P2M entries whose M2P inverse disagrees — the
          hypervisor invariant randomized M2P corruption breaks *)
  domain_pages : (string * int) list;
      (** per host: populated pages; a sharp drop between snapshots is
          balloon pressure (the management-interface violation) *)
  sched_stalled : int;
      (** consecutive scheduler slices lost to a hung vcpu *)
  free_frames : int;
      (** free host frames; halving between snapshots is exhaustion *)
}

type scan_cache = int Scan_memo.t
(** Cross-snapshot cache for the expensive audits (page-table walks and
    the M2P inverse check). Campaign loops snapshot the same
    reset-to-baseline testbed thousands of times; the cache keeps one
    {!Scan_memo} node per page table and reuses it while it holds under
    the memo's one rule: the table's own frame is not dirty, and none of
    the frames whose [Page_info] its leaves consulted is touched, since
    the checkpoint. A trial that rewrites or retypes under one table
    thus re-probes that table alone. The M2P count depends on the M2P
    frames only: the hypervisor never changes a P2M without the
    matching M2P entry.

    Every testbed owns one ([Testbed.t.scan_cache], fresh on create and
    on every fork), and [Substrate_xen.snapshot] passes it, so each
    [Campaign.Make] trial and every other substrate caller gets it
    without asking. The cache is bypassed while a provenance shadow is
    attached, so provenance graphs see every read a fresh scan makes. *)

val create_scan_cache : unit -> scan_cache
(** A cache not yet tied to a testbed. It anchors on first use; never
    share it across testbeds. *)

val snapshot : ?cache:scan_cache -> Testbed.t -> snapshot
(** [snapshot ?cache tb] is independent of [cache]: passing one changes
    only the cost, never the result. Without [cache] every audit is a
    fresh scan — the oracle the cache is tested against. *)

val writable_pt_exposure : Hv.t -> Domain.t -> int
(** The integrity audit behind [pt_exposure]: how many leaf (or
    superpage) mappings give this domain, at guest privilege, write
    access to frames currently typed as page tables. Always 0 on a
    healthy direct-paging system. This is the uncached walk. *)

val violations : before:snapshot -> after:snapshot -> violation list
(** Violations that appeared between the two snapshots, most severe
    first. An empty list means the system handled the state (the
    shield of Table III). *)

val violations_tagged : before:snapshot -> after:snapshot -> (string * violation) list
(** The same violations as {!violations}, in the same order, each
    tagged with the domain (hostname) it was observed in. Host-level
    conditions — a hypervisor crash, M2P divergence, scheduler stalls,
    frame exhaustion — are tagged ["host"]. *)

val by_domain : (string * violation) list -> (string * violation list) list
(** Group a tagged list by domain, for every backend: domains appear
    in first-violation order, and within a domain the list order is
    preserved. Domains with no violations do not appear. *)

val violation_to_string : violation -> string

val same_class : violation list -> violation list -> bool
(** Same multiset of violation classes (ignoring evidence strings) —
    the comparison RQ1 makes between exploit and injection runs. *)

val class_mask : violation list -> int
(** Bitmask of the violation classes present (bit 0 = hypervisor crash,
    … bit 5 = availability degradation) — the compact form trace
    [Monitor_verdict] records carry. *)

val class_index : violation -> int
(** The class number behind {!class_mask}'s bits (0–5): the violation
    axis of {!Coverage} maps. *)
