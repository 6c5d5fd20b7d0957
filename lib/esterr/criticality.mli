(** Backward observability (criticality) analysis.

    For every node, computes the mask of simulation patterns on which a
    value flip at the node is expected to propagate to at least one primary
    output. Propagation is approximated edge-by-edge in one reverse
    topological pass (the classical testability approximation: reconvergence
    is ignored), which is the sensitivity ingredient of SEALS [12]. The
    result is a ranking heuristic, not a bound.

    The pass is pull-form: each node ORs the sensitised masks of its
    consumers. A from-scratch analysis ({!masks}) and the estimator's
    per-round refresh ({!update}) are the same sweep, the first with every
    node seeded. *)

open Accals_lac
open Accals_bitvec

val masks : Round_ctx.t -> Bitvec.t array
(** [masks ctx].(id) is the criticality mask of node [id]; dead nodes get a
    zero-length dummy. Primary-output drivers are fully critical. *)

val update :
  Round_ctx.t ->
  Bitvec.t array ->
  sig_changed:int list ->
  struct_dirty:bool array ->
  Bitvec.t array
(** [update ctx crit ~sig_changed ~struct_dirty] brings the masks [crit] of
    the previous context up to date with [ctx] and returns them (grown to
    the node count, reusing [crit]'s buffers). Only nodes whose pull terms
    may have changed, and their transitive fanins up to the first
    bit-equal mask, are recomputed. [sig_changed] lists nodes whose
    signature changed and [struct_dirty] flags nodes whose definition,
    fanout set, liveness or output-driver status changed. The result is
    bit-identical to {!masks} [ctx]. *)

