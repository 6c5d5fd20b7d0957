(** Work accounting for the domain-parallel runtime, backed by the
    telemetry metrics registry.

    A [Stats.t] is attached to a {!Pool.t} and accumulates, across the
    pool's whole lifetime: the number of tasks executed, the number of
    batches (one per {!Pool.run}), and the number of times a worker went to
    sleep waiting for work. The counters live in a per-pool
    {!Accals_telemetry.Metrics} registry (names [accals_pool_*_total]),
    so they appear directly in Prometheus exports; the integer parts are
    [Atomic]-backed, so workers on different domains bump them without
    locks.

    Named phases ("simulate", "estimate", ...) accumulate wall-clock
    seconds via {!time_phase} into the registry family
    [accals_phase_seconds_total{phase=...}]. Timing uses the monotonic
    {!Accals_telemetry.Clock} — a wall-clock step (NTP slew, manual date
    change) cannot produce negative or inflated phase times. A
    {!snapshot} freezes everything into a plain record for reports and
    the bench harness. *)

type t

val create : jobs:int -> t

val jobs : t -> int

val metrics : t -> Accals_telemetry.Metrics.t
(** The pool's backing registry (counters and phase times live here). *)

(** {1 Counters (used by [Pool])} *)

val add_tasks : t -> int -> unit
val incr_batches : t -> unit
val incr_waits : t -> unit

val incr_steals : t -> unit
(** The awaiting submitter ran a queued chunk instead of a worker
    ([accals_pool_steal_total]). *)

val worker_parked : t -> unit
(** A worker domain is about to sleep; bumps the
    [accals_pool_workers_idle] gauge. *)

val worker_unparked : t -> float -> unit
(** The worker woke after sleeping for the given monotonic seconds;
    drops the gauge and accumulates [accals_pool_idle_seconds_total]. *)

(** {1 Phase timing} *)

val time_phase :
  ?end_args:(unit -> (string * Accals_telemetry.Json.t) list) ->
  t ->
  string ->
  (unit -> 'a) ->
  'a
(** [time_phase t name f] runs [f ()] and adds its monotonic wall-clock
    duration to the accumulated time of phase [name]; when the ambient
    telemetry tracer is enabled it also records a span (category
    ["phase"]) whose args are [end_args ()], read after [f] returns.
    Phases appear in snapshots in first-recorded order.

    Re-entrancy: calls may nest, including the same phase inside itself —
    each level accumulates its own full duration on exit (so a
    self-nested phase double-counts the inner interval; the engine's
    phases never self-nest). The duration is recorded even if [f]
    raises. *)

val add_phase : t -> string -> float -> unit
(** Add [seconds] to phase [name] directly. *)

(** {1 Snapshots} *)

type snapshot = {
  jobs : int;  (** pool size the stats were collected under *)
  tasks : int;  (** tasks executed (including sequential bypass) *)
  batches : int;  (** [Pool.run] invocations that fanned out *)
  waits : int;  (** times a worker domain slept waiting for work *)
  steals : int;  (** chunks the awaiting submitter ran *)
  idle_seconds : float;  (** total seconds workers spent parked *)
  phases : (string * float) list;  (** per-phase wall seconds, in order *)
  metrics : Accals_telemetry.Metrics.snapshot;
      (** full registry snapshot (pool counters, phase seconds, and any
          engine metrics recorded against this pool's registry) *)
}

val snapshot : t -> snapshot

val empty : snapshot
(** All-zero snapshot with [jobs = 1]; the placeholder for flows that never
    touched a pool. *)

val phase_seconds : snapshot -> string -> float
(** Accumulated seconds of a phase, 0 if never recorded. *)
