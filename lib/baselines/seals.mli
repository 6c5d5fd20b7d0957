(** SEALS [12]: the state-of-the-art single-selection iterative ALS flow
    AccALS is compared against (Section III-B).

    SEALS runs on AccALS's round loop ({!Accals.Engine.run}) with a step
    that applies only the single best LAC each round (minimum ΔE, ties by
    larger area gain), evaluated with the same sensitivity-driven
    two-level estimator. The shortlist is the config's, so per-round
    estimation effort matches AccALS: the controlled variable of the
    paper's comparison is single- versus multi-LAC selection. Every
    run-level setting of the config (deadlines, audits, the memory budget,
    certification) applies as it does to AccALS. *)

open Accals_network
module Metric := Accals_metrics.Metric

val run :
  ?config:Accals.Config.t ->
  ?patterns:Sim.patterns ->
  ?pool:Accals_runtime.Pool.t ->
  Network.t ->
  metric:Metric.kind ->
  error_bound:float ->
  Accals.Engine.report
(** {!Accals.Engine.run} with {!Accals.Engine.single_lac} as the step
    every round, over [config.shortlist] candidates; every round is a
    [Trace.Single] round. *)
