(** The AccALS synthesis engine (Algorithm 1 with the Section II-E
    improvement techniques), and the one round loop the SEALS and AMOSA
    baselines also run on.

    Each round the loop simulates, streams the round's candidate LACs into
    a shortlist, scores the shortlist exactly, and hands it to a {!step},
    the flow's per-round choice. The step commits a change or ends the run.
    The loop records the trace row, keeps the best feasible circuit and
    applies every run-level setting of {!Config.t} whatever the step:
    deadlines, shadow audits, the memory governor, [validate_rounds],
    checkpoints and certification. *)

open Accals_network
open Accals_lac
module Metric := Accals_metrics.Metric
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
  exact_evaluations : int;
      (** estimator cone resimulations, plus the step's own circuit
          evaluations (AMOSA's probes) *)
  area_ratio : float;
      (** [approximate] over [original]; each ratio is 1.0 when the
          original's figure is 0 (a gate-free circuit) *)
  delay_ratio : float;
  adp_ratio : float;
  degraded : bool;
      (** the run ended early or off its preferred path; the report carries
          the best circuit found rather than a converged result. Why, and
          the rest of the degradation state, derive from [incidents]
          ({!Accals_audit.Degradation.of_incidents}). *)
  audits : int;
      (** shadow audits performed this process (work accounting: a resumed
          run counts only its own) *)
  incidents : Incident.t list;
      (** chronological anomaly records (audit divergences, watchdog
          expiries, resource exhaustion, certification violations), one
          per anomaly; checkpointed, so a resumed run reports the same
          list *)
  certification : Certify.outcome option;
      (** present iff [Config.certify]: the independent re-measurement of
          [approximate] — when it rolled back, [error] and the ratio fields
          describe the rolled-back circuit actually emitted *)
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

(** {1 Selection steps} *)

type round = {
  config : Config.t;
  pool : Accals_runtime.Pool.t;
  eval : Round_eval.t;  (** the working circuit's evaluation backend *)
  ctx : Round_ctx.t;
  rng : Accals_bitvec.Prng.t;  (** the run's PRNG, part of the snapshot *)
  e : float;  (** exact-on-samples error of the working circuit *)
  e_b : float;  (** the error bound *)
  single : bool;
      (** the run's degradation level is single-LAC, or (seen by
          [select] only: it is polled after estimation) the round deadline
          expired; the step should then commit one LAC ({!single_lac}) *)
}
(** What a step sees of the round in progress. *)

type choice = {
  mode : Trace.mode;
  top : int;  (** the trace's [top_count] *)
  sol : int;
  indp : int;
  rand : int;
  chose_indp : bool option;
  applied : Lac.t list;  (** the LACs committed this round *)
  skipped : int;  (** LACs skipped by the acyclicity guard *)
  e_new : float;  (** exact-on-samples error after the commit *)
  reverted : bool;  (** improvement 2 replaced the set with one LAC *)
}
(** A committed round. The loop derives the rest of the trace row. *)

type step = {
  name : string;
      (** ["accals"], ["seals"] or ["amosa"]; tags the [engine.run] span and
          the [run_start] event *)
  shortlist : round -> int;  (** how many candidates to score exactly *)
  select : round -> Lac.t list -> choice option * int;
      (** Given the shortlist with exact ΔE, best first (never empty),
          commit a change through [round.eval] and describe it, or return
          [None] to end the run. The [int] counts circuit evaluations
          beyond the estimator's (AMOSA's probes); it is added to
          [exact_evaluations]. *)
}

val single_lac : round -> Lac.t list -> choice option * int
(** Commit the first shortlisted LAC that applies without closing a cycle:
    a [Trace.Single] round. SEALS's step every round; AccALS's under
    improvement 1 or when [round.single]. *)

val accals : step
(** Algorithm 1: single-LAC rounds while improvement 1 applies (shortlist
    capped at 64), otherwise the multi-LAC selection with improvement 2
    and the random comparison. *)

(** {1 Runs} *)

type snapshot
(** The engine's complete deterministic state at a round boundary: original
    and working circuits, best feasible circuit, errors, round trace, PRNG
    state, configuration, metric and bound, incident list and (under
    [Config.certify]) up to 8 earlier feasible circuits for certification
    rollback. It is the round loop's only state, and a checkpoint is a copy
    of it. A snapshot plus this module's code fully determines the
    remainder of the run — patterns and golden signatures are regenerated
    from the configuration and original circuit. Snapshots contain no
    closures and are safe to persist with [Accals_resilience.Checkpoint]. *)

val snapshot_version : int
(** Stored inside every snapshot; {!resume} rejects mismatches. *)

exception Incompatible_snapshot of { found : int; expected : int }
(** Raised by {!resume} for a snapshot written by a build with a different
    {!snapshot_version} ([found]) than this one ([expected]). *)

val snapshot_round : snapshot -> int
val snapshot_finished : snapshot -> bool
val snapshot_circuit : snapshot -> string

val run :
  ?step:step ->
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
    [step] defaults to {!accals}.
    When [patterns] is omitted, they are derived from [config]
    (exhaustive below the input-count limit, seeded-random otherwise).

    When [pool] is given it is used (and left running) for the parallel
    phases; otherwise a pool of [config.jobs] domains is created for the
    run and shut down before returning. The report is bit-identical for
    every [jobs] value — the parallel fan-out merges in submission order
    (see [lib/runtime]) — so [jobs = 1] remains the reference
    implementation.

    When [checkpoint] is given it is called with the engine's snapshot
    after every completed round and once more when the run ends (only with
    the default step: snapshots do not record the step, and {!resume}
    continues with {!accals}; [Invalid_argument] otherwise); both the
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
