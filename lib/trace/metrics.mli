(** A unified metrics registry: counters, gauges and fixed-bucket
    histograms, with Prometheus-text and JSON renderers.

    This registry is the shared publication point on top of the
    always-on tracer counters ({!Trace.telemetry}) and the per-trial
    telemetry deltas: campaign telemetry and the VMI detectors register
    instruments here and one renderer serves them all.

    Instruments are identified by [(name, labels)]. Asking for the same
    identity twice returns the {e same} instrument (so independent
    publishers accumulate into one series); asking for it with a
    different kind raises [Invalid_argument]. Rendering sorts series by
    name then labels, so output order is deterministic regardless of
    registration order.

    Counters and histogram bucket counts are integers; gauges and
    histogram sums are floats (wall-clock seconds, ratios). Histograms
    are fixed-bucket: the bucket upper bounds are declared at creation
    and never change, and rendering is cumulative ([le]-style), exactly
    like the Prometheus exposition format. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

(** {1 Instruments} *)

val counter :
  registry -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Find-or-create. [labels] default to []. *)

val inc : ?by:int -> counter -> unit
(** Add [by] (default 1). Raises [Invalid_argument] on negative [by]:
    counters are monotonic. *)

val counter_value : counter -> int

val gauge :
  registry -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

val histogram :
  registry ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float list ->
  string ->
  histogram
(** [buckets] are the finite upper bounds, strictly increasing; an
    implicit [+inf] bucket is always appended. Find-or-create: asking
    again with different [buckets] raises [Invalid_argument]. *)

val observe : histogram -> float -> unit

val histogram_count : histogram -> int
(** Total observations. *)

val histogram_sum : histogram -> float

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([0 <= q <= 1])
    Prometheus-style: locate the bucket the rank falls into and
    interpolate linearly within it. Observations landing in the
    implicit [+inf] bucket clamp the estimate to the highest finite
    bound; an empty histogram yields [nan]. Raises [Invalid_argument]
    when [q] is outside [0, 1]. *)

val bucket_counts : histogram -> (float * int) list
(** Cumulative counts per upper bound, the [+inf] bucket last (rendered
    as [infinity]). [histogram_count h] equals the last count. *)

(** {1 Rendering} *)

val render_prometheus : registry -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers, one
    line per series, histograms as [_bucket]/[_sum]/[_count]. Series
    sorted by (name, labels); byte-deterministic for deterministic
    instrument values. *)

val render_json : registry -> string
(** The same series as a JSON object
    [{"metrics": [{"name": ..., "type": ..., "labels": {...}, ...}]}],
    in the same deterministic order. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s]: double quote, backslash
    and newline get short escapes, every other control character becomes
    a [\u00XX] escape. The one escaper every JSON renderer in the stack
    uses. *)
