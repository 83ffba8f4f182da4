(** The paper's experimental environment: one host running a given Xen
    version, a privileged dom0 ("xen3"), an attacker-controlled guest
    ("guest03"), a victim guest ("guest01"), optional extra bystander
    guests ("guest05", "guest07", ...), a device model serving the
    victim, and a remote attacker host ("xen2") on the simulated
    network.

    Everything but the Xen version is identical across instantiations,
    matching §IX-C ("the only difference was the Xen version").

    [create] takes an {!Hv.checkpoint} of the freshly-booted state, so a
    campaign can {!reset} one testbed between trials in O(dirty pages)
    instead of paying a full boot per trial.

    {2 Multi-domain testbeds}

    [?domains] is the number of concurrent guest domains (victim +
    attacker + extras; default 2, the historical pair). [?load] attaches
    a deterministic background workload ({!Load_mix}): every guest
    domain performs the mix's ops per scheduler round, drawn from a
    per-domain splitmix64 stream that is seeded on create/fork and
    re-seeded on reset — so loaded, multi-domain testbeds stay
    byte-replayable and pooled ≡ fresh. *)

type t = {
  hv : Hv.t;
  mutable net : Netsim.t;
  mutable dom0 : Kernel.t;
  mutable attacker : Kernel.t;
  mutable victim : Kernel.t;
  mutable extras : Kernel.t list;  (** bystander guests beyond the pair *)
  dm : Devmodel.t;  (** the device model serving the victim *)
  load : Load_mix.t;
  load_streams : (int * Load_mix.stream) list;
      (** one per guest domain, built on create/fork and re-seeded in
          place on reset; empty while [load] runs no ops *)
  remote_host : string;
  checkpoint : Hv.checkpoint;
  scan_cache : int Scan_memo.t;
      (** the monitor's baseline scan cache ([Monitor.scan_cache]):
          one per testbed, fresh on [create] and on every [fork] *)
}

val create : ?domains:int -> ?load:Load_mix.t -> Version.t -> t
(** Boot a host of 2048 frames with 128 dom0 pages and 96 pages per
    guest. Defaults: 2 guest domains, no background load. It boots the
    pool's templates; drivers take {!create_pooled}. *)

val fork : ?load:Load_mix.t -> t -> t
(** A new testbed forked from [t] in O(metadata): the hypervisor memory
    is shared copy-on-write with the template ({!Hv.fork}), kernels are
    rebuilt around the forked domains, the device model starts pristine.
    Requires the template's memory to be {!Phys_mem.freeze}d. [?load]
    overrides the template's mix (load is runtime-only state).
    Observably equivalent to [create] with the template's parameters. *)

val create_pooled : ?domains:int -> ?load:Load_mix.t -> Version.t -> t
(** Like {!create}, but forked from a process-wide frozen template per
    (version, domain count), built once, on first use. Amortizes the
    builder cost across every shard and matrix cell of a campaign;
    thread-safe, so worker domains may call it concurrently. The result
    is observably equivalent to a fresh {!create} — the property the
    pooled-identity tests pin down. *)

val reset : t -> unit
(** Roll the testbed back to the state captured at [create]: hypervisor
    restored from the checkpoint (only dirty frames rewritten), and the
    network, the guest kernels ({!Kernel.reset}), the device model and
    the load streams returned to boot state in place. A kernel whose
    domain the trial destroyed is rebuilt around the restored record.
    After [reset t], the testbed is observably equivalent to [create
    version] — the property the equivalence tests pin down. *)

val kernels : t -> Kernel.t list
(** All guest kernels, dom0 first, extras last. *)

val guest_kernels : t -> Kernel.t list
(** The unprivileged guests (victim, attacker, extras) — the domains
    the per-domain result rows index. *)

val domains : t -> int
(** Number of guest domains (excluding dom0). *)

val domain_names : t -> string list
(** Hostnames of the guest domains, {!guest_kernels} order. *)

val extra_name : int -> string
(** Hostname of the [i]-th guest beyond the victim/attacker pair
    (0-based): guest05, guest07, ... Other backends name their extra
    guests the same way, so per-domain rows line up. *)

val tick_all : t -> unit
(** One scheduler round on every domain (vDSO hooks run), then the
    background-load ops for each guest domain, then one device-model
    turn. All inside the round's trace scope, so a replayed
    [Sched_round] regenerates the whole thing. *)

val remote_listen : t -> port:int -> unit
(** Start a listener on the remote attacker host. *)
