(** AMOSA-style evolutionary baseline [15] (Section III-C).

    Selects multiple LACs per round with archived multi-objective simulated
    annealing over subsets of the round's conflict-free candidate LACs. A
    state is a LAC subset; its objectives are the exact-on-samples error and
    the circuit area after application. Non-dominated (error, area) points
    are archived; acceptance follows the AMOSA rule (always accept
    dominating moves, accept dominated moves with a temperature-scaled
    probability of the domination amount). At the end of a round the
    archived point with the largest area reduction within the error bound is
    applied, and the process repeats on the new circuit.

    Every annealing proposal costs a full circuit evaluation, which is what
    makes the approach slow relative to AccALS (Table III); each counts in
    the report's [exact_evaluations].

    The annealing is a selection step of AccALS's round loop
    ({!Accals.Engine.run}): the shortlist holds [pool_size] candidates,
    the annealer's PRNG and archive carry across rounds, and every
    run-level setting of the config (deadlines, audits, the memory budget,
    certification) applies as it does to AccALS. A round that must be
    single-LAC (degradation level, round deadline) commits
    {!Accals.Engine.single_lac} instead of annealing. *)

open Accals_network
module Metric := Accals_metrics.Metric

type config = {
  iterations_per_round : int;  (** annealing proposals per round *)
  subset_limit : int;  (** max LACs in a state *)
  pool_size : int;  (** conflict-free candidates fed to the annealer *)
  initial_temperature : float;
  cooling : float;  (** geometric factor per proposal *)
  seed : int;
}

val default_config : config

type result = {
  report : Accals.Engine.report;
  archive : (float * float) list;
      (** non-dominated (error, area ratio) points collected over the whole
          run — the Fig. 7 curve *)
}

val run :
  ?config:Accals.Config.t ->
  ?amosa:config ->
  ?patterns:Sim.patterns ->
  ?pool:Accals_runtime.Pool.t ->
  Network.t ->
  metric:Metric.kind ->
  error_bound:float ->
  result
