(** SEALS-style batch error-increase estimation [12].

    Two levels, as in the paper's sensitivity-driven flow:

    + a cheap criticality ranking of every candidate as the generators
      emit it (one mask intersection per candidate; {!shortlist}), and
    + exact-on-samples evaluation of the best-ranked candidates
      ({!evaluate}). Each distinct shortlisted target's transitive-fanout cone
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
    same pattern set as [ctx]. An empty estimator brought up to [ctx] by
    {!refresh} with every node structurally dirty: there is no separate
    from-scratch derivation of the criticality masks, error mask or base
    error. *)

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
    fields). The masks come from {!Criticality.update}; the base error is
    the fold of the current per-sample error terms
    ({!Accals_metrics.Metric.total}). [create] followed by a sequence of
    mutate/[refresh] steps is value-identical to a fresh [create] on each
    successive network. *)

val candidate_signature : t -> Lac.t -> Bitvec.t
(** The target's new signature under the LAC (freshly allocated). *)

val exact_delta : t -> Lac.t -> float
(** ΔE(ψ): exact-on-samples error increase (can be negative). *)

type mode = Exact | Approximate

type shortlist = {
  ranked : (float * Lac.t) array;  (** best first, with rank scores *)
  seen : int;  (** LACs the stream emitted *)
}

val shortlist : t -> k:int -> ((Lac.t -> unit) -> unit) -> shortlist
(** Rank each LAC the stream emits, as it arrives, and keep the [k] best.
    The rank is the fraction of samples on which the LAC changes the
    target, the change is deemed observable, and the sample is currently
    error-free (smaller is better); ties go to the larger area gain, then
    to the earlier emission. Runs on the calling domain. *)

val evaluate :
  ?mode:mode -> ?pool:Accals_runtime.Pool.t -> t -> shortlist -> Lac.t list
(** The shortlisted LACs with [delta_error] filled, sorted by ascending ΔE
    (ties: larger area gain first). [Exact] (default) computes one flip
    response per distinct shortlisted target and selects each candidate's
    ΔE from it; [Approximate] takes the rank score as ΔE without
    resimulation — the cheap end of the VECBEE [11] accuracy/effort
    trade-off, exposed for the ablation study.

    With a multi-domain [pool] and [Exact], the distinct targets fan out
    across the pool's domains on private scratch buffers; results land at
    their shortlist positions, bit-identical to the sequential pass. *)

val score :
  ?mode:mode -> ?pool:Accals_runtime.Pool.t -> t -> shortlist:int ->
  Lac.t list -> Lac.t list
(** [evaluate] of [shortlist] over a list: for tests and perfbench replay. *)

val evaluations : t -> int
(** Number of exact evaluations so far: candidates whose signature differs
    from their target's (for the bench harness's work accounting).
    [Atomic.t]-backed, so the count stays exact when [evaluate] fans out over
    a pool. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the transitive-fanout cone cache since [create].
    {!evaluate} looks up each distinct shortlisted target's cone once, on the
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
    {!evaluate} is in flight (workers read the cache concurrently). *)
