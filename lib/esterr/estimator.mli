(** SEALS-style batch error-increase estimation [12].

    Two levels, as in the paper's sensitivity-driven flow:

    + a cheap criticality ranking over all candidates (one mask intersection
      per candidate), and
    + exact-on-samples evaluation of a shortlist of the best-ranked
      candidates. Each distinct shortlisted target's transitive-fanout cone
      is resimulated once with the target's signature complemented (its
      flip response); each candidate's metric is then a per-sample
      selection between the current and the flipped error terms
      ({!Accals_metrics.Metric.select_total}) on the samples where the
      candidate changes the target.

    The exact pass gives ΔE(ψ) = e_est_new − e where e_est_new is the exact
    metric value of the modified circuit on the shared sample set. *)

open Accals_lac
open Accals_bitvec
module Metric := Accals_metrics.Metric

type t

val create : Round_ctx.t -> golden:Bitvec.t array -> metric:Metric.kind -> t
(** [golden] must be the output signatures of the *original* circuit on the
    same pattern set as [ctx]. *)

val base_error : t -> float
(** Error of the current circuit against the golden outputs. *)

val refresh : t -> Round_ctx.t -> sig_changed:int list -> struct_dirty:bool array -> unit
(** Re-point the estimator at the next round's context, updating the
    persistent state selectively instead of rebuilding it: criticality
    masks are recomputed only inside the region implied by the delta
    (with early convergence stopping), the cone cache drops only entries
    whose target or members were structurally touched, and the error
    mask/base error are refreshed from the new output signatures.

    [sig_changed] lists nodes whose signature changed and [struct_dirty]
    flags nodes whose definition, fanout set, liveness or output-driver
    status changed since the context the estimator last saw (e.g. from
    {!Accals_sigdb.Sigdb.refresh} — both arguments match its [delta]
    fields). [create] followed by a sequence of mutate/[refresh] steps is
    value-identical to a fresh [create] on each successive network. *)

val candidate_signature : t -> Lac.t -> Bitvec.t
(** The target's new signature under the LAC (freshly allocated). *)

val rank_score : t -> Lac.t -> float
(** Cheap ranking heuristic: fraction of samples on which the LAC changes
    the target's value, the change is deemed observable, and the sample is
    currently error-free. Smaller is more promising. *)

val exact_delta : t -> Lac.t -> float
(** ΔE(ψ): exact-on-samples error increase (can be negative). *)

type mode = Exact | Approximate

val score :
  ?mode:mode ->
  ?pool:Accals_runtime.Pool.t ->
  t ->
  shortlist:int ->
  Lac.t list ->
  Lac.t list
(** Rank all candidates, evaluate the best [shortlist] of them, and return
    those with [delta_error] filled, sorted by ascending ΔE (ties: larger
    area gain first). [Exact] (default) computes one flip response per
    distinct shortlisted target and selects each candidate's ΔE from it;
    [Approximate] takes the criticality estimate as ΔE without
    resimulation — the cheap end of the VECBEE [11] accuracy/effort
    trade-off, exposed for the ablation study.

    When [pool] is a multi-domain pool and the mode is [Exact], the
    distinct targets fan out across the pool's domains, each domain
    resimulating on private scratch buffers; results land at their
    candidates' shortlist positions, so the outcome is bit-identical to the
    sequential pass. *)

val evaluations : t -> int
(** Number of exact evaluations so far: candidates whose signature differs
    from their target's (for the bench harness's work accounting).
    [Atomic.t]-backed, so the count stays exact when [score] fans out over
    a pool. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the transitive-fanout cone cache since [create].
    {!score} looks up each distinct shortlisted target's cone once, on the
    calling domain, whatever the pool. [Atomic.t]-backed like
    {!evaluations}; pure observation (the telemetry registry reports the
    deltas per round). *)

val cone_cache_bytes : t -> int
(** Estimated bytes held by the cone cache (for the memory governor). *)

val drop_cone_cache : t -> int
(** Memory-pressure relief: empty the cone cache and return how many
    entries were dropped. Cones are derived data recomputed on demand, so
    scores — and therefore results — cannot change; only the time to
    rebuild the cache is lost. Must not be called while a parallel
    {!score} is in flight (workers read the cache concurrently). *)
