(** Per-round synthesis trace, used for the paper's statistical analysis
    (Fig. 4) and for debugging. *)

type mode = Multi | Single

type round = {
  index : int;
  mode : mode;
  candidates : int;  (** candidate LACs generated *)
  top_count : int;  (** |L_top| *)
  sol_count : int;  (** |L_sol| after conflict resolution *)
  indp_count : int;  (** |L_indp| *)
  rand_count : int;  (** |L_rand| *)
  chose_indp : bool option;  (** [None] in single-LAC rounds *)
  applied : int;  (** LACs actually applied this round *)
  skipped_cycles : int;  (** LACs skipped by the acyclicity guard *)
  error_before : float;
  error_after : float;
  estimated_error : float;  (** Eq. (1) estimate for the applied set *)
  reverted : bool;  (** improvement technique 2 fired *)
  area : float;  (** circuit area after the round *)
  resim_nodes : int;
      (** node signature evaluations spent this round; on the incremental
          path only changed fanout cones are re-evaluated, on the rebuild
          path this counts the full simulations performed *)
  resim_converged : int;
      (** evaluations whose result was bit-equal to the stored signature,
          pruning the rest of their cone (0 on the rebuild path) *)
  resim_recycled : int;
      (** signature buffers served from the recycling pool instead of
          being freshly allocated (0 on the rebuild path) *)
}

val indp_ratio : round list -> float
(** Fraction of multi-LAC rounds in which the independent set won (the
    paper's L_indp ratio, Fig. 4). 0 when there were no such rounds. *)


val summary : round list -> string

val resim_summary : round list -> string
(** Totals of the per-round resimulation counters, e.g.
    ["8123 node evaluations (402 stopped early, 7310 buffers recycled)"]. *)

val to_csv : round list -> string
(** One header line plus one row per round; loads directly into pandas /
    gnuplot for trajectory plots. *)

val write_csv : round list -> string -> unit

val of_csv : string -> round list
(** Strict inverse of {!to_csv}: parses the header plus rows back into
    rounds, raising [Failure] on header drift, wrong column arity or
    malformed fields. [of_csv (to_csv rounds)] returns rounds whose float
    fields are the [%.9f]/[%.1f]-rounded values the CSV carries; all other
    fields round-trip exactly. *)

(** {1 Parallel-runtime accounting}

    The engine's report carries an {!Accals_runtime.Stats.snapshot}; these
    helpers render it alongside the round trace. *)

val stats_summary : Accals_runtime.Stats.snapshot -> string
(** e.g. ["4 domains, 1280 tasks in 12 batches, 31 worker waits"]. *)

val phases_summary : Accals_runtime.Stats.snapshot -> string
(** Per-phase wall time, e.g. ["simulate 0.12s, estimate 1.40s, ..."]. *)
