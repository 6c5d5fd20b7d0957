(** Exact cut-rewriting optimization (ABC's "refactor" in miniature).

    For each node, compute the local function of its best cut (at most 4
    leaves, 4 cuts kept per node) and replace the cone with a freshly
    minimized SOP when that strictly reduces area. Function-preserving; used as the last stage of the benchmark
    optimization pipeline. *)

open Accals_network

val run : Network.t -> int
(** Rewrite in place; returns the number of nodes rewritten. Run
    {!Cleanup.sweep} afterwards to fold the freed logic. *)
