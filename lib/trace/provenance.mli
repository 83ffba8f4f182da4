(** Byte-granular provenance over physical memory.

    A sparse shadow map tags every byte of every frame with an {e
    origin label}: which producer wrote it last (an injector action, a
    hypercall argument path, a guest kernel write, a backend
    device-model write — or the boot-time baseline, label 0, which is
    never stored). Consumers that {e interpret} bytes — the 4-level
    page walker, [Mm]'s PTE validation, [Idt.read_gate], the KVM
    VMCS/EPT walkers, the monitor's integrity scans — call {!observe},
    which records a causal {!edge} from the consumer back to the
    origin labels of the bytes it read (and emits a
    [Trace.Provenance_edge] record when the ring is recording).

    The map is owned by [Phys_mem]: attach one with
    [Phys_mem.set_provenance] and every byte-path write taints
    automatically under the origin installed by [with_origin]. Writes
    with no origin installed {e clear} taint (overwrite semantics).
    Detached (the default), the whole layer costs one option match per
    write.

    A shadow is attached after the machine baseline is captured and
    never across a capture ([Phys_mem.capture_baseline] raises while
    one is attached), so the baseline holds no taint:
    [Phys_mem.reset_to_baseline] calls {!reset_to_baseline}, and the
    O(dirty) trial reset returns the shadow to "nothing tainted".
    Labels are interned in first-use order and all queries sort
    deterministically, so a replayed boundary stream reproduces the
    {!graph} byte for byte. *)

type t

(** Who wrote a byte. *)
type origin =
  | Baseline  (** label 0: untouched since the machine baseline *)
  | Injector_action of int
      (** the [n]-th injector access of the trial (1-based, from
          [Trace.injector_accesses]) *)
  | Hypercall_arg of int  (** bytes written while dispatching hypercall [nr] *)
  | Guest_write of int  (** an ordinary guest kernel write from domain [domid] *)
  | Backend_write of int  (** a backend-private write port (KVM [host_write]) *)
  | Overflow  (** the saturation label once 254 origins are live *)
  | Device_model of int
      (** bytes radiated into guest memory by a compromised device
          model. [n] is the injector access ordinal that corrupted the
          device model (so a bystander-domain casualty still attributes
          to the injector), or 0 when the compromise came from a real
          exploit rather than the injection port. *)

val origin_kind : origin -> int
(** Stable small code for the origin {e constructor} (0–6), the
    provenance axis of {!Coverage}. *)

val origin_to_string : origin -> string
(** Deterministic rendering ("injector#1", "hypercall:2", "guest:d1",
    ...), used by the exports and the attribution tables. *)

(** Who read (interpreted) a byte. *)
type consumer =
  | Pt_walk  (** {!Paging.read_entry}: the 4-level walker + PTE decode *)
  | Page_type_check  (** [Mm] page-type validation/promotion reads *)
  | Idt_gate  (** {!Idt.read_gate} (exception delivery, VMI audits) *)
  | Monitor_scan  (** [Monitor]'s writable-PT exposure scan *)
  | M2p_check  (** M2P/P2M consistency checks *)
  | Vmcs_check  (** KVM VM entry / VMCS hash reads *)
  | Ept_walk  (** the KVM EPT graph walk *)
  | Vmi_view  (** out-of-band VMI view reconstruction *)
  | Gnt_check  (** grant-table wire-entry interpretation ([Grant_table.map_memory]) *)
  | Vdso_exec  (** guest vDSO code page read at tick (backdoor decode) *)

val consumer_code : consumer -> int
(** Stable wire code used by [Trace.Provenance_edge]. *)

val consumer_name : consumer -> string
val all_consumers : consumer list

type edge = {
  e_vts : int64;
      (** virtual timestamp (simulated ns) when the read happened (0
          when no trace is attached) *)
  e_consumer : consumer;
  e_mfn : int;
  e_off : int;
  e_len : int;
  e_labels : int list;  (** distinct nonzero label ids, ascending *)
}

(** {1 Lifecycle} *)

val create : ?tr:Trace.t -> unit -> t
(** An empty map. [tr] (also settable later with {!set_trace}) supplies
    edge and label timestamps and the ring the [Provenance_edge] records go to. *)

val set_trace : t -> Trace.t -> unit

(** {1 Producing taint} *)

val with_origin : t -> origin -> (unit -> 'a) -> 'a
(** Run [f] with [origin] installed as the label for every {!taint} in
    its dynamic extent. Nests: the innermost origin wins (an injector
    action issued through a hypercall labels as the injector action). *)

val taint : t -> mfn:int -> off:int -> len:int -> unit
(** Label [len] bytes at [off] in frame [mfn] with the installed
    origin. With no origin installed this {e clears} existing taint on
    the range (overwrite semantics) and is a no-op on untainted
    frames. *)

val clear_frame : t -> int -> unit
(** Drop all taint on one frame (called when a frame is scrubbed). *)

(** {1 Consuming taint} *)

val observe : t -> consumer:consumer -> mfn:int -> off:int -> len:int -> unit
(** Declare that [consumer] interpreted the byte range. If any byte is
    tainted: mark those labels read, append an {!edge}, and emit a
    [Trace.Provenance_edge] when the ring is recording. No-op (one
    hashtable probe) otherwise. *)

(** {1 Reset} *)

val reset_to_baseline : t -> unit
(** Back to "nothing tainted": clears the shadow, the interned labels,
    the edges and the installed origin. *)

(** {1 Queries} *)

val tainted_bytes : t -> int
val edge_count : t -> int
val edges : t -> edge list
(** Oldest first. *)

val origin_of_label : t -> int -> origin

val label_vts : t -> int -> int64
(** Virtual timestamp at which the label was interned (first taint from
    its origin); 0 for the baseline label. *)

val labels : t -> (int * origin * int * bool) list
(** All interned labels in id order: (id, origin, live bytes, read). *)

val origins_for : t -> (consumer -> bool) -> origin list
(** Distinct origins reaching any consumer satisfying the predicate,
    sorted. *)

val origins_read : t -> origin list

val silent : t -> (origin * int) list
(** Tainted-but-never-read labels — silent corruption: bytes were
    injected but nothing interpreted them. (origin, live bytes), in
    label id order. *)

(** {1 Deterministic exports} *)

type gedge = { g_consumer : string; g_mfn : int; g_off : int; g_len : int; g_origins : string list }

val graph : t -> gedge list
(** The canonical (timestamp-free, deduplicated, sorted) causal graph. Replay
    of the same boundary stream reproduces it exactly. *)

val to_json : t -> string
(** Nodes (labels with byte counts and read flags) + canonical edges;
    byte-deterministic. *)

val to_dot : t -> string
(** Graphviz rendering: origin boxes (silent ones annotated) → consumer
    ellipses, one arrow per (origin, consumer) pair weighted by site
    count; byte-deterministic. *)

(** {1 Metrics} *)

val read_distance_ns_buckets : float list
(** Bucket bounds (virtual ns) for the ns-denominated taint→read
    distance histogram. *)

val publish : Metrics.registry -> t -> unit
(** Publish edges-total, live tainted bytes, silent-label count and the
    taint→read distance histogram in virtual ns. *)
