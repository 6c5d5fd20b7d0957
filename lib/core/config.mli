(** AccALS parameters (Section III of the paper).

    Defaults mirror the paper's experimental setup: [t_b = 0.5],
    [lambda = 0.9], [l_e = 0.9], [l_d = 0.3], and size-dependent
    [(r_ref, r_sel)] of (100, 20) below 600 AIG nodes, (200, 40) up to
    4999, and (400, 80) from 5000. *)

open Accals_lac

type t = {
  r_ref : int;  (** reference top-LAC count (Eq. 2) *)
  r_sel : int;  (** reference selected-LAC count (Section II-D3) *)
  t_b : float;  (** mutual-influence index bound (Section II-D2) *)
  lambda : float;  (** per-round estimated-error budget factor λ *)
  l_e : float;  (** improvement 1: single-LAC mode above l_e·e_b *)
  l_d : float;  (** improvement 2: negative-set detection bound on β *)
  seed : int;  (** PRNG seed for patterns and random selection *)
  samples : int;  (** random simulation patterns when not exhaustive *)
  exhaustive_limit : int;  (** exhaustive simulation up to this many PIs *)
  shortlist : int;  (** exact ΔE evaluations per round *)
  candidate : Candidate_gen.config;
  max_rounds : int;  (** safety valve *)
  (* Ablation switches (all true in the paper's flow): *)
  use_mis : bool;
      (** select N_indp by MIS on the influence graph; off: N_indp = N_sol *)
  use_random_comparison : bool;
      (** build and race L_rand against L_indp; off: always apply L_indp *)
  use_improvement_1 : bool;  (** single-LAC mode near the bound *)
  use_improvement_2 : bool;  (** negative-set detection and revert *)
  exact_estimation : bool;
      (** resimulate shortlisted candidates exactly (default); off: take
          the cheap criticality estimate as ΔE (VECBEE's fast mode) *)
  incremental : bool;
      (** the differential-test reference switch. On (default, and every
          CLI run): each round runs through the event-driven signature
          database ([lib/sigdb]) — candidate sets are evaluated under an
          undo journal on the working circuit and only changed fanout cones
          are resimulated. Off: the rebuild-everything reference path,
          which copies the network and resimulates it per evaluation. Both
          produce bit-identical traces and results for every [jobs] value;
          the tests compare them. Chosen at construction, never switched
          mid-run (see {!Round_eval}). *)
  jobs : int;
      (** domains for the parallel runtime; 1 (default) runs the reference
          sequential path with no pool. Results are bit-identical for every
          value, see [lib/runtime]. *)
  (* Resilience (all off by default; see [lib/resilience] and README
     "Failure semantics"): *)
  round_deadline : float option;
      (** per-round watchdog budget in seconds; when a round overruns it,
          the engine falls back from multi-LAC to single-LAC selection for
          that round instead of dying *)
  run_deadline : float option;
      (** whole-run watchdog budget in seconds; when it expires the engine
          stops and reports the best circuit found so far with
          [report.degraded = true] *)
  validate_rounds : bool;
      (** run {!Accals_network.Network.validate} on the working circuit at
          every round boundary (always done before checkpointing) *)
  audit_every : int;
      (** shadow-audit cadence: every [audit_every] rounds, re-derive the
          round's signatures and error from scratch and compare them with
          the incremental engine's view (see [lib/audit]); a divergence is
          recorded as an incident and the signature database is rebuilt
          from the working circuit. The run's second divergence moves it
          to single-LAC and the third stops it; both are derived from the
          incident list ({!Accals_audit.Degradation}). 0 (default)
          disables scheduled audits; watermark anomalies still trigger
          one. *)
  certify : bool;
      (** after the final round, re-measure the result circuit's error with
          an independent PRNG stream (exhaustively when the input width
          permits) and roll back to an earlier feasible circuit if the
          independent measurement violates the bound *)
  max_memory_mb : int;
      (** memory budget for the run in MiB; 0 (default) disables the
          governor. When the sampled footprint (GC major heap plus sigdb
          pool counters) crosses the budget the engine first applies
          result-preserving relief (drop the cone cache and signature
          buffer pool, compact); if the footprint is still over budget it
          checkpoints and stops with [report.degraded = true]. Both rungs
          are bit-identity-preserving for the circuits the run does emit,
          and the OOM killer is never the failure mode *)
}

val default : t
(** Small-circuit bucket with 2048 samples. *)

val resolve_jobs : int -> int
(** A [--jobs] value: positive values stand; [0] (or less) means
    [Domain.recommended_domain_count ()], clamped to [\[1, 64\]]. *)

val for_size : ?base:t -> int -> t
(** [for_size aig_nodes] applies the paper's (r_ref, r_sel) size buckets on
    top of [base] (default {!default}), scaling the exact-evaluation
    shortlist along with r_ref. *)

val for_network : ?base:t -> Accals_network.Network.t -> t
