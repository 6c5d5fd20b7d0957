(** Bit-parallel logic simulation.

    A {!patterns} value fixes the input stimuli: one signature per primary
    input, one bit per pattern. {!run} then computes the signature of every
    live node. Exhaustive patterns enumerate all input combinations (small
    circuits); random patterns sample uniformly with a deterministic seed,
    matching the paper's uniform input distribution. *)

type patterns = {
  count : int;  (** number of simulation vectors *)
  by_input : Accals_bitvec.Bitvec.t array;  (** one signature per PI *)
}

val exhaustive : int -> patterns
(** [exhaustive k] enumerates all [2^k] vectors over [k] inputs. [k] must be
    at most 20. Bit [p] of input [i]'s signature is bit [i] of pattern
    index [p]. *)

val random : seed:int -> count:int -> int -> patterns
(** [random ~seed ~count k] draws [count] uniform vectors over [k] inputs. *)

val for_network : ?seed:int -> ?count:int -> ?exhaustive_limit:int -> Network.t -> patterns
(** Exhaustive when the network has at most [exhaustive_limit] (default 14)
    inputs, otherwise random with [count] (default 2048) vectors. *)

val run :
  ?live:bool array ->
  Network.t ->
  patterns ->
  order:int array ->
  Accals_bitvec.Bitvec.t array
(** [run t pats ~order] simulates the nodes listed in [order] (a topological
    order, e.g. from {!Structure.topo_order}) and returns signatures indexed
    by node id. Entries for nodes outside [order] are a shared zero-length
    dummy and must not be used. When [live] (e.g. {!Structure.live_set}) is
    given, dead nodes in [order] are skipped too — they stay on the shared
    dummy instead of costing an allocation and an evaluation each. *)

val eval_op_into :
  Gate.op ->
  lookup:(int -> Accals_bitvec.Bitvec.t) ->
  int array ->
  dst:Accals_bitvec.Bitvec.t ->
  unit
(** [eval_op_into op ~lookup fanins ~dst] writes the signature of [op] over
    the signatures [lookup] gives for [fanins] (n-ary ops fold left to
    right; [Mux] fanins are [sel; a; b]). The fanin count must satisfy
    {!Gate.arity_ok}, and [dst] must not alias any fanin signature. Raises
    [Invalid_argument] on [Input]. *)

val eval_node_into :
  Network.t ->
  lookup:(int -> Accals_bitvec.Bitvec.t) ->
  int ->
  dst:Accals_bitvec.Bitvec.t ->
  unit
(** Recompute one node's signature from fanin signatures provided by
    [lookup]: {!eval_op_into} on the node's op and fanins. Used for cone
    resimulation in the error estimator. *)
