(** Per-node signature database with event-driven resimulation.

    A [Sigdb.t] attaches to one {!Accals_network.Network.t} (via the
    network's change tracker) and keeps per-node simulation signatures
    valid across in-place mutation. Instead of rebuilding every structure
    and resimulating the whole circuit each round, it

    - maintains full fanout lists incrementally from change events,
    - logs every change (resimulation roots, structurally touched and
      redefined nodes) in one change log, journal or not,
    - re-evaluates only the transitive fanout cone of changed nodes,
      stopping early where a recomputed signature is bit-equal to the
      stored one, and recycles displaced signature buffers — both through
      one {!Overlay}, and
    - supports speculative mutation under an undo journal, evaluating the
      journaled changes into the overlay without touching the committed
      signatures.

    Exactness contract: for every live node the stored signature is
    bit-identical to what a from-scratch {!Accals_network.Sim.run} over the
    current network would produce. The cheap per-round views (live set,
    topological order, live-filtered fanouts, fanout counts) are
    recomputed by {!refresh} with the same {!Accals_network.Structure}
    routines the rebuild path uses, so candidate enumeration order is
    exactly that of the non-incremental path.

    Usage protocol per engine round:
    + {!refresh} (or {!create} initially), build views, score candidates;
    + per candidate set: {!begin_journal}, apply LACs to the network,
      {!with_journal_outputs} to measure error, {!undo_journal};
    + commit the chosen set by applying it outside a journal, then
      {!resimulate}, then (optionally) run function-preserving cleanup
      such as [Cleanup.sweep], then {!refresh} for the next round.

    Mutations left pending at {!refresh} without a prior {!resimulate}
    must be function-preserving per node (cleanup rewrites): the stored
    signatures are assumed still correct for the current definitions. *)

type counters = Overlay.counters = {
  mutable resim_nodes : int;
  mutable resim_converged : int;
  mutable buffers_recycled : int;
  mutable journal_undos : int;
  mutable journal_entries_undone : int;
}
(** The incremental engine's counters, documented at {!Overlay.counters}. *)

type delta = {
  sig_changed : int list;
      (** nodes whose committed signature changed since the previous
          {!refresh} (includes nodes added and then resimulated) *)
  struct_dirty : bool array;
      (** per-node flag (indexed by id, sized to the current node count):
          the node's definition, fanout set or liveness changed since the
          previous {!refresh} *)
  redefined : int list;
      (** nodes whose definition (operator or fanins) changed, or that
          were added, since the previous {!refresh}; a subset of
          [struct_dirty] *)
  live_changed : int list;  (** nodes whose liveness flipped *)
}

type t

val create : Accals_network.Network.t -> Accals_network.Sim.patterns -> t
(** Build the database: the consumer lists, one {!refresh} of the empty
    database, and one full (live-only) simulation. Attaches the network's change tracker; raises
    [Invalid_argument] if another tracker is already attached. The network
    must not be marshaled while attached — checkpoint a
    {!Accals_network.Network.copy} instead (copies carry no tracker). *)

val detach : t -> unit
(** Detach from the network's change tracker. The database must not be
    used afterwards. *)

val corrupt_signature : t -> int option
(** Audit self-test hook: flip one bit of the first live non-input stored
    signature (topological order) and return its node id, or [None] when
    no such node exists. Deliberately violates the exactness contract so
    the shadow-audit path (see [lib/audit]) can be exercised end-to-end;
    never call it outside a self-test. *)

val network : t -> Accals_network.Network.t
val patterns : t -> Accals_network.Sim.patterns

val counters : t -> counters
(** Live counter record (monotonic); callers snapshot and diff. *)

(** {2 Buffer-pool accounting}

    The recycled-buffer pool trades memory for allocation churn; under a
    [--max-memory-mb] budget the governor reads its footprint and, at soft
    pressure, gives the memory back. *)

val pool_bytes : t -> int
(** Estimated bytes held by idle pooled buffers. *)

val trim_pool : t -> int
(** Drop every idle pooled buffer and return how many were dropped. Purely
    a space/time trade: signatures, views and enumeration order are
    untouched, so results cannot change. *)

(** {2 Frozen per-round views}

    All views are replaced (not mutated) by {!refresh}, so values captured
    after a refresh stay internally consistent for the whole round even as
    the network mutates. Signature entries of dead nodes are a shared
    zero-length dummy and must not be read. *)

val sigs_view : t -> Accals_bitvec.Bitvec.t array
val live_view : t -> bool array
val order_view : t -> int array
val topo_pos_view : t -> int array
val fanouts_view : t -> int array array
val fanout_counts_view : t -> int array

(** {2 Speculative evaluation} *)

val begin_journal : t -> unit
(** Start recording mutations for undo and mark where the change log
    stands. At most one journal at a time. *)

val with_journal_outputs : t -> (Accals_bitvec.Bitvec.t array -> 'a) -> 'a
(** Evaluate the journaled mutations into the overlay (cone-only,
    early-stopping, rooted at every change since the last {!resimulate})
    and pass the resulting primary-output signatures to the callback. Committed signatures are untouched; overlay buffers are
    returned to the pool afterwards. The journal stays open. *)

val undo_journal : t -> unit
(** Revert every journaled mutation — node definitions, the output table,
    and speculative node allocations (the network is truncated back to its
    pre-journal node count) — restoring the incremental structures
    exactly, and cut the change log back to where it stood at
    {!begin_journal}. *)

(** {2 Committed updates} *)

val resimulate : t -> unit
(** Consume the pending committed mutations: re-evaluate their transitive
    fanout cone in topological order, updating stored signatures in place
    and pruning wherever a recomputed signature is bit-equal. Must not be
    called with an open journal. *)

val refresh : t -> delta
(** Recompute the per-round views (live set, topological order,
    live-filtered fanouts, fanout counts) for the current network and
    return what changed since the last refresh — the estimator uses the
    delta for selective invalidation. Newly dead nodes release their
    signature buffers to the pool. Must not be called with an open
    journal. *)
