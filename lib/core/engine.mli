(** The AccALS synthesis engine (Algorithm 1 with the Section II-E
    improvement techniques). *)

open Accals_network
module Metric := Accals_metrics.Metric
module Ladder := Accals_audit.Ladder
module Incident := Accals_audit.Incident
module Certify := Accals_audit.Certify

type report = {
  original : Network.t;
  approximate : Network.t;  (** compacted final circuit, error <= bound *)
  error : float;  (** exact-on-samples error of [approximate] *)
  metric : Metric.kind;
  error_bound : float;
  rounds : Trace.round list;  (** chronological *)
  runtime_seconds : float;
  exact_evaluations : int;  (** estimator cone resimulations *)
  area_ratio : float;
  delay_ratio : float;
  adp_ratio : float;
  degraded : bool;
      (** the run ended early or off its preferred path — see
          [degraded_reason]; the report carries the best circuit found
          rather than a converged result *)
  degraded_reason : Ladder.reason option;
      (** why the run degraded: the run-deadline watchdog expired
          ([Watchdog_run]), a shadow audit caught the fast path diverging
          ([Audit_divergence]) or the memory governor shed the run
          ([Resource_pressure]); [None] iff [degraded = false] *)
  final_level : Ladder.level;
      (** where on the degradation ladder the run ended *)
  ladder_events : Ladder.event list;  (** chronological; survives resume *)
  ladder_summary : string;
      (** e.g. ["incremental [audit_divergence@1]"] *)
  audits : int;
      (** shadow audits performed this process (work accounting: a resumed
          run counts only its own) *)
  incidents : Incident.t list;
      (** chronological anomaly records (audit divergences, watchdog
          expiries, certification violations); checkpointed, so a resumed
          run reports the same list *)
  certification : Certify.outcome option;
      (** present iff [Config.certify]: the independent re-measurement of
          [approximate] — when it rolled back, [error] and the ratio fields
          describe the rolled-back circuit actually emitted. Rollback
          candidates beyond the final best live in memory only, so a run
          resumed near its end may have fewer to try than the uninterrupted
          one. *)
  stats : Accals_runtime.Stats.snapshot;
      (** parallel-runtime work accounting and per-phase wall time
          ("simulate", "candidates", "estimate", "select", "evaluate") *)
  metrics : Accals_telemetry.Metrics.snapshot;
      (** full telemetry registry snapshot: the pool registry (work
          counters, phase seconds, per-round engine metrics, GC gauges)
          merged with the ambient registry (checkpoint counters). This is
          what [--metrics-out] exports; purely observational, identical
          synthesis outputs with or without any exporter attached. *)
}

type snapshot
(** The engine's complete deterministic state at a round boundary: original
    and working circuits, best feasible circuit, errors, round trace, PRNG
    state, configuration, metric and bound. A snapshot plus this module's
    code fully determines the remainder of the run — patterns and golden
    signatures are regenerated from the configuration and original circuit.
    Snapshots contain no closures and are safe to persist with
    [Accals_resilience.Checkpoint]. *)

val snapshot_version : int
(** Stored inside every snapshot; {!resume} rejects mismatches. *)

exception Incompatible_snapshot of { found : int; expected : int }
(** Raised by {!resume} for a snapshot written by a build with a different
    {!snapshot_version} ([found]) than this one ([expected]). *)

val snapshot_round : snapshot -> int
val snapshot_finished : snapshot -> bool
val snapshot_circuit : snapshot -> string

val run :
  ?config:Config.t ->
  ?patterns:Sim.patterns ->
  ?pool:Accals_runtime.Pool.t ->
  ?checkpoint:(snapshot -> unit) ->
  Network.t ->
  metric:Metric.kind ->
  error_bound:float ->
  report
(** Synthesize an approximate version of the network whose [metric] error
    (measured on the shared pattern set against the original) does not
    exceed [error_bound]. When [config] is omitted, the paper's
    size-bucketed parameters are chosen from the circuit's AIG node count.
    When [patterns] is omitted, they are derived from [config]
    (exhaustive below the input-count limit, seeded-random otherwise).

    When [pool] is given it is used (and left running) for the parallel
    phases; otherwise a pool of [config.jobs] domains is created for the
    run and shut down before returning. The report is bit-identical for
    every [jobs] value — the parallel fan-out merges in submission order
    (see [lib/runtime]) — so [jobs = 1] remains the reference
    implementation.

    When [checkpoint] is given it is called with the engine's snapshot
    after every completed round and once more when the run ends; both the
    working and best circuits are validated
    ({!Accals_network.Network.validate}) before each call. The deadline
    fields of [config] ([round_deadline], [run_deadline]) arm the
    watchdogs described in {!Config.t}; deadline expiry only selects an
    alternative deterministic path (single-LAC fallback, early stop with
    [degraded = true]) — it never interrupts a computation midway. *)

val resume :
  ?jobs:int ->
  ?patterns:Sim.patterns ->
  ?pool:Accals_runtime.Pool.t ->
  ?checkpoint:(snapshot -> unit) ->
  snapshot ->
  report
(** Continue a run from a snapshot. The remainder of the run — and hence
    the final report, minus wall-clock fields ([runtime_seconds], [stats])
    — is bit-identical to the uninterrupted run the snapshot was taken
    from, for any [jobs] value. [jobs] overrides the snapshot's stored job
    count (the fan-out order, and therefore the result, does not depend on
    it). The snapshot is not consumed: resuming the same snapshot twice
    yields identical reports. Raises {!Incompatible_snapshot} when the
    snapshot's version does not match {!snapshot_version}. *)
