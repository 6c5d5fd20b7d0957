(** Round evaluation backend: candidate-set evaluation, single-LAC
    evaluation and commits.

    Every run evaluates through an attached {!Accals_sigdb.Sigdb} database
    (undo-journaled evaluation with cone-only resimulation). When that
    database cannot be trusted — a shadow audit diverged — {!reset} drops
    it, and the next {!begin_round} builds a fresh one from the working
    circuit, exactly as a resumed run does. There is no runtime switch to
    another backend.

    The rebuild-everything path (copy the circuit, resimulate from scratch)
    is selected only at construction, with [~incremental:false]. It is the
    differential-test reference: both paths produce bit-identical
    applied/skipped partitions, error floats and committed circuits; only
    the work counters differ. *)

open Accals_network
open Accals_lac
module Metric := Accals_metrics.Metric
module Estimator := Accals_esterr.Estimator

type t

val create :
  incremental:bool ->
  current:Network.t ref ->
  patterns:Sim.patterns ->
  golden:Accals_bitvec.Bitvec.t array ->
  metric:Metric.kind ->
  t
(** The backend reads and updates the working circuit through [current].
    On the incremental path the referenced network gets a change tracker
    attached (on the first {!begin_round}) and is mutated in place by
    commits; checkpoint a {!Accals_network.Network.copy} of it, never the
    network itself. On the rebuild path ([~incremental:false], the
    differential-test reference) commits replace the ref's content with a
    fresh copy. *)

val watermark_ok : t -> bool
(** False when the incremental database's frozen views are inconsistent
    with the working circuit (a missed change event); always true on the
    rebuild backend and between {!reset} and the next {!begin_round}. The
    engine treats false as a forced-audit trigger. *)

val reset : t -> unit
(** Drop the signature database (detaching its change tracker), the
    analysis context, the estimator and the candidate-generator memo,
    banking the retiring estimator's cache counters for {!take_aux}. The
    next {!begin_round} rebuilds all four from the working circuit, so the
    rest of the run is bit-identical to one that never reset; only the
    work counters show the rebuild. Round boundary only. *)

val audit : t -> recorded_error:float -> Accals_audit.Shadow.verdict
(** Shadow audit of the working circuit at a round boundary: re-derive
    liveness, order, signatures and error from scratch and compare with the
    incremental database's views ({!Accals_audit.Shadow.compare}). On the
    rebuild backend only the recorded error is cross-checked. *)

val corrupt_for_selftest : t -> int option
(** Corrupt one stored signature through
    {!Accals_sigdb.Sigdb.corrupt_signature}; [None] on the rebuild
    backend. Test hook. *)

val begin_round : t -> Round_ctx.t * Estimator.t
(** Analysis context and estimator for the round about to start. Rebuild:
    fresh ones over the current circuit. Incremental: the persistent pair,
    already refreshed by the previous round's commit — or, on the first
    round and after {!reset}, a fresh database and pair. *)

val generator : t -> Candidate_gen.memo option
(** The candidate-generator memo for this round's
    {!Candidate_gen.iter}: on the incremental path, created with the
    database and refreshed from the same change delta as the estimator by
    every commit; [None] on the rebuild backend, which regenerates every
    target every round and serves as the memo's oracle. *)

val take_evaluations : t -> int
(** Estimator cone resimulations since the previous call (the estimator is
    persistent on the incremental path, so the raw counter accumulates). *)

val take_counters : t -> int * int * int
(** [(nodes, converged, recycled)] resimulation counters accumulated since
    the previous call. Incremental: node evaluations, early-convergence
    stops and pool hits from the signature database. Rebuild: [nodes]
    counts the full simulations performed (each costed at the round-start
    live non-input node count); the other two are 0. *)

type aux = {
  cache_hits : int;  (** estimator cone-cache hits *)
  cache_misses : int;
  journal_undos : int;  (** sigdb undo-journal reverts (0 on rebuild) *)
  journal_entries : int;  (** journal entries undone, summed over reverts *)
}

val take_aux : t -> aux
(** Secondary work counters accumulated since the previous call — the
    engine pushes these into the telemetry registry each round. Pure
    observation: reading them never affects evaluation. *)

val aux_bytes : t -> int
(** Estimated bytes held by discardable derived state: the estimator's
    cone cache, the signature database's idle buffer pool and the
    candidate-generator memo. Feeds the [--max-memory-mb] governor's
    footprint sample. *)

val relieve_memory : t -> int * int * int
(** Memory-pressure relief: drop the cone cache, the idle signature
    buffer pool and the candidate-generator memo (replaced by an empty
    one), returning [(cones_dropped, buffers_dropped, memo_bytes_dropped)].
    All three are derived data rebuilt on demand, so candidates and
    evaluation results are bit-identical with or without the relief — only
    time is lost. Round boundary only. *)

val eval_set : t -> Lac.t list -> Lac.t list * Lac.t list * float
(** Evaluate a LAC set without committing it: apply in ascending
    [delta_error] order, partition into (applied, skipped) under the
    acyclicity guard, and return the exact-on-samples error the working
    circuit would have (measured before any cleanup). The working circuit
    is unchanged on return. *)

val eval_single : t -> Lac.t list -> (Lac.t * float) option
(** First LAC of the list that applies without closing a cycle, with the
    exact-on-samples error of the resulting circuit; [None] if none
    applies. The working circuit is unchanged on return. *)

val probe : t -> Lac.t list -> Lac.t list * float * float
(** [(applied, error, area)] of the circuit obtained by applying the set
    and sweeping, without committing — the AMOSA baseline's state
    evaluation. Area is measured after the sweep. *)

val commit_set : t -> Lac.t list -> unit
(** Commit the [applied] list a prior {!eval_set} returned (in that exact
    order), then sweep. Re-application reproduces the evaluated circuit
    bit-for-bit, fresh node ids included. *)

val commit_single : t -> Lac.t -> unit
(** Commit one LAC a prior {!eval_single} returned, then sweep. *)
