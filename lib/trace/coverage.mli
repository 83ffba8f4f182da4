(** Deterministic, mergeable coverage maps — the feedback signal a
    coverage-guided intrusion fuzzer maximizes.

    A {e collector} ({!t}) rides on a machine's {!Trace.t} (attach with
    [Trace.set_coverage]); the instrumented sites that already exist for
    tracing feed it through the [note_*] calls. A {e map} ({!map}) is an
    immutable fixed-size bitmap snapshot of a collector: 1328 bytes
    covering five axes —

    - {b violation}: monitor violation class × affected-domain slot
      (6 × 32 = 192 bits)
    - {b provenance}: causal-edge consumer site × origin kind
      (16 × 8 = 128 bits)
    - {b port}: hypercall/ioctl number × errno outcome
      (64 × 32 = 2048 bits)
    - {b scn_edge}: scenario-VM prev-pc→pc edges, hashed into
      1024 slots × 8 AFL-style hit-count buckets (8192 bits)
    - {b record}: trace record codes seen on the ring (64 bits)

    Everything is modular arithmetic over fixed tables, so a map is a
    pure function of the trial's deterministic execution: sequential,
    sharded and pooled campaigns produce byte-identical maps, and
    replaying a recording's boundary stream reproduces its map exactly.
    [merge] is bitwise-or (commutative, associative, idempotent), which
    is what makes per-trial maps safe to accumulate in any order. *)

type t
(** A mutable collector (one per machine trace). *)

type map
(** An immutable snapshot. Structural equality is byte equality. *)

(** {1 Collector} *)

val create : unit -> t

val clear : t -> unit
(** Reset to empty — campaigns call this at the top of every trial so a
    trial's map is absolute (independent of worker history). *)

val note_violation : t -> cls:int -> domain:string -> unit
(** [cls] is {!Monitor.class_index}; [domain] the affected domain name
    (["host"] for host-level rows), hashed into 32 slots. *)

val note_prov : t -> consumer:int -> origin_kind:int -> unit
(** [consumer] is {!Provenance.consumer_code}; [origin_kind] a stable
    small code for the origin constructor (see {!Provenance}). *)

val note_port : t -> nr:int -> outcome:int -> unit
(** A hypercall or backend-ioctl completion: [nr] the call number,
    [outcome] 0 for success or the positive {!Errno.to_int} code. *)

val note_scn_edge : t -> section:int -> prev:int -> pc:int -> unit
(** One executed scenario-VM instruction: the (section, prev-pc,
    pc) edge, counted; counts bucketize AFL-style at snapshot time. *)

val note_record : t -> int -> unit
(** A trace record code appended to the ring. {!Trace.emit} feeds this
    automatically for every code a replay regenerates. *)

val snapshot : t -> map

(** {1 Maps} *)

val empty : map
val size_bits : int

val merge : map -> map -> map
(** Bitwise or: commutative, associative, idempotent. *)

val diff : map -> map -> map
(** [diff a b]: bits set in [a] but not in [b];
    [merge b (diff a b) = merge a b]. *)

val novelty : map -> against:map -> int
(** Bits this map adds over [against]: [popcount (diff m against)]. *)

val popcount : map -> int
val is_empty : map -> bool
val equal : map -> map -> bool

val hash : map -> int64
(** FNV-1a 64 over the map bytes; stable across processes. *)

val region_bits : map -> (string * int) list
(** Per-axis popcount, in layout order:
    [violation; provenance; port; scn_edge; record]. *)

(** {1 Deterministic renderers} *)

val to_hex : map -> string
val of_hex : string -> (map, string) result

val to_json : map -> string
(** [{"bits":…,"hash":"…","regions":{…},"map":"<hex>"}] —
    byte-deterministic. *)

val of_json_map : string -> (map, string) result
(** Recover a map from any JSON document containing a ["map":"<hex>"]
    field (the first occurrence wins — pass a single-map document). *)

val publish : ?labels:(string * string) list -> Metrics.registry -> map -> unit
(** Gauges [coverage_bits_total] and [coverage_bits{region=…}], rendered
    by {!Metrics.render_prometheus} like every other series. *)

(** {1 Slot helpers (exposed for tests)} *)

val domain_slot : string -> int
val scn_slot : section:int -> prev:int -> pc:int -> int
val count_bucket : int -> int
