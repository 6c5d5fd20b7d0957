(** Maximum independent set solver (KaMIS [16] substitute).

    Small graphs (≤ 26 vertices after trivial reductions) are
    solved exactly by branch-and-bound; larger graphs get a greedy
    minimum-degree construction improved by (1,2)-swap local search in the
    style of the ARW iterated local search used inside KaMIS. The AccALS
    selection graphs have at most a few hundred vertices and are sparse, so
    the heuristic is near-optimal in practice. *)

val solve : ?seed:int -> Graph.t -> int list
(** Independent set of maximal size; deterministic for a fixed seed. *)

val solve_exact : Graph.t -> int list
(** Exact maximum independent set via branch and bound; exponential, only
    use on small graphs. *)

val greedy : Graph.t -> int list
(** Minimum-degree greedy construction. *)
