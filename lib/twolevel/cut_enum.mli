(** K-feasible cut enumeration (bottom-up merge, as in FPGA mapping).

    A cut of node [n] is a set of nodes ("leaves") such that every path from
    a primary input to [n] passes through a leaf; the node's local function
    in terms of its leaves is what SOP rewriting minimizes. *)

open Accals_network

val enumerate :
  Network.t -> order:int array -> k:int -> per_node:int -> int array list array
(** [enumerate net ~order ~k ~per_node] returns, per node id, the list of
    cuts (sorted leaf arrays, each of size <= k, smallest cuts first,
    at most [per_node] kept, the trivial cut {n} excluded). [order] must be
    a topological order covering the nodes of interest. *)

(** {2 Incremental enumeration}

    A node's cuts are a function of its fanins and of its fanins' cuts
    alone, so a store kept across edits of one network only recomputes a
    node whose definition changed or one of whose fanins' cuts changed.
    {!enumerate} is one {!update} of an empty store with every node
    dirty. *)

type store

val store : unit -> store
(** An empty store: the first {!update} computes every node it visits. *)

val update :
  store ->
  Network.t ->
  order:int array ->
  k:int ->
  per_node:int ->
  dirty:(int -> bool) ->
  stamp:int ->
  int
(** [update s net ~order ~k ~per_node ~dirty ~stamp] brings the cuts of
    every node of [order] up to date and returns how many nodes it
    recomputed: those never computed, those [dirty] reports (a changed
    definition or liveness since the previous update), and those with a
    fanin whose cuts this update changed. A node whose recomputed cuts
    differ from its stored ones is stamped with [stamp]. Stamps should
    increase from update to update; repeating one only costs recomputation.
    [k] and [per_node] must not change between updates of one store. *)

val cuts : store -> int -> int array list
(** The node's cuts as of the last {!update} that visited it, as
    {!enumerate} lists them; [[]] for a node never visited. The node must
    have existed at the last {!update}. *)

val changed_at : store -> int -> int
(** Stamp of the update that last changed the node's cuts; -1 for a node
    never visited. The node must have existed at the last {!update}. *)

val bytes : store -> int
(** Estimated heap bytes held by the store. *)

val is_cut : Network.t -> root:int -> leaves:int array -> bool
(** Check the cut property by walking the cone (test helper). *)
