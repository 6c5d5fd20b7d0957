(** Metrics registry: named counters, gauges and fixed-bucket histograms
    with Prometheus text-exposition and JSONL exporters.

    A registry is an instantiable value, not a process singleton: the
    parallel runtime attaches one registry per pool (work accounting must
    stay per-pool), the ambient {!Telemetry} handle carries one for
    run-scoped metrics, and their snapshots are merged for export.

    Instruments are registered idempotently by (name, labels): asking for
    the same counter twice returns the same cell, so call sites do not
    need to thread handles around. Registration order is preserved in
    snapshots — the engine's phase list keeps its first-recorded order.

    Thread-safety: counter increments are [Atomic]-backed and safe from
    any domain; float accumulation, gauges and histogram sums take a
    per-instrument mutex (all are off the per-task hot path).

    Determinism contract: a registry only ever observes — nothing in the
    synthesis flow reads a metric back to make a decision, so recording
    can never change a result. *)

type labels = (string * string) list

(** {1 Instruments} *)

type counter
(** Monotonically non-decreasing. Holds an integer part (atomic, cheap)
    and a float part (mutex-guarded, for seconds/bytes accumulation). *)

type gauge
type histogram

type t
(** A registry. *)

val create : unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> counter
(** Register (or fetch) a counter. Raises [Invalid_argument] if the
    (name, labels) pair is already registered as a different instrument
    kind, if a non-empty [help] differs from the one the family (every
    label set of the name) was registered with, if the metric name is not a valid Prometheus identifier, or if
    any label name is invalid (registration-time rejection keeps a single
    bad name from poisoning the whole exposition). *)

val incr : counter -> unit
val add : counter -> int -> unit

val addf : counter -> float -> unit
(** Add a non-negative float amount (negative amounts raise
    [Invalid_argument]: counters never decrease). *)

val counter_value : counter -> float

val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

val histogram :
  t -> ?help:string -> ?labels:labels -> buckets:float array -> string -> histogram
(** [buckets] are the upper bounds of the fixed buckets, strictly
    increasing; an implicit [+Inf] bucket is always appended. Raises
    [Invalid_argument] on an empty or unsorted bound array. *)

val observe : histogram -> float -> unit

(** {1 Snapshots and export} *)

type value =
  | Counter of float
  | Gauge of float
  | Histogram of {
      bounds : float array;  (** finite upper bounds, ascending *)
      counts : int array;  (** per-bucket (non-cumulative); length = bounds + 1, last is +Inf *)
      sum : float;
      count : int;
    }

type sample = {
  name : string;
  labels : labels;
  help : string;
  value : value;
}

type snapshot = sample list
(** Registration order. *)

val snapshot : t -> snapshot

val histogram_value : histogram -> value
(** One histogram's current [Histogram] value, as {!snapshot} would
    report it. *)

val merge : snapshot -> snapshot -> snapshot
(** Concatenation — the inputs are expected to use disjoint (name, labels)
    spaces (per-pool vs ambient registries do by construction). *)

val find : snapshot -> ?labels:labels -> string -> value option

val to_prometheus : snapshot -> string
(** Prometheus text exposition format (version 0.0.4): one [# HELP] and
    [# TYPE] line per family, samples grouped by family, histograms
    expanded to cumulative [_bucket{le=...}] plus [_sum]/[_count].
    Label values are escaped (backslash, double-quote, newline), HELP
    text escapes backslash and newline, so arbitrary strings round-trip
    safely. *)

val to_jsonl : snapshot -> string
(** One JSON object per line, one line per sample:
    [{"metric": name, "labels": {...}, "type": ..., ...}]. *)
