(** FindSolveLACConf (Section II-C).

    Extracts a conflict-free subset of L_top from its LAC conflict graph
    (Definition 1: nodes are the LACs, weighted by ΔE; edges join Type-1
    and Type-2 conflicts) by visiting nodes in ascending weight order and
    keeping each node that conflicts with nothing already kept. The graph
    is implicit: the kept LACs' target and SN sets answer whether a node
    has a kept neighbour, in time linear in the LAC count. *)

open Accals_lac

val find_and_solve : Lac.t list -> Lac.t list * int list
(** [(l_sol, n_sol)]: the conflict-free LAC set and its target-node set.
    Both lists keep the input order; every target in [n_sol] is unique. *)
