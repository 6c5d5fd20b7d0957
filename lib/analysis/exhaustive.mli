(** Exact error measurement by chunked exhaustive simulation.

    Sampled metrics (what the synthesis loop uses) are estimates; this
    module walks the entire input space in bit-parallel chunks and returns
    the exact value, feasible up to {!max_inputs} primary inputs. Used to
    certify final circuits and to quantify the sampling error of the
    estimates. *)

open Accals_network
module Metric := Accals_metrics.Metric

val max_inputs : int
(** 24 by default-chunk arithmetic: 2^24 vectors, simulated in 2^11 chunks
    of 2^13 patterns. *)

type report = {
  error_rate : float;
  mean_error_distance : float;
  normalized_mean_error_distance : float;
  mean_relative_error_distance : float;
  worst_case_error : float;
  vectors : int;  (** number of input vectors examined *)
}

val compare_networks :
  ?pool:Accals_runtime.Pool.t -> golden:Network.t -> approx:Network.t -> unit -> report
(** Both networks must have identical input and output interfaces. Raises
    [Invalid_argument] when interfaces differ or the input count exceeds
    {!max_inputs}. Chunks of [2^13] vectors, simulated into one buffer per
    live gate, each add {!Metric.sum} of their terms; with [pool] they fan
    out over its domains. The chunk layout and the fold order are fixed, so
    the report is identical for every pool size. *)

val value : report -> Metric.kind -> float
