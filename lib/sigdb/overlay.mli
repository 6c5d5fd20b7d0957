(** Cone-overlay evaluation.

    Re-evaluates a topologically ordered fanout cone under a substitution
    without touching the stored signatures: new values go into an overlay
    (grown on demand) through which every node reads its fanins, in
    buffers from a recycling pool. The signature database evaluates
    journaled and committed changes with it; the estimator evaluates flip
    responses with one per domain. Buffers are write-before-read, so a
    fresh overlay and a reused one give bit-identical results. *)

type counters = {
  mutable resim_nodes : int;  (** node evaluations performed *)
  mutable resim_converged : int;
      (** evaluations bit-equal to the stored signature, pruning the cone *)
  mutable buffers_recycled : int;  (** pool hits when acquiring a buffer *)
  mutable journal_undos : int;  (** journal undos (bumped by [Sigdb]) *)
  mutable journal_entries_undone : int;
      (** journal entries reverted, summed over undos (bumped by [Sigdb]) *)
}

type t

val create : int -> t
(** [create samples]: an empty overlay whose buffers hold [samples] bits. *)

val counters : t -> counters
(** Live counter record (monotonic); callers snapshot and diff. *)

val take : t -> Accals_bitvec.Bitvec.t
(** A pooled buffer (counted as recycled) or a fresh one; contents
    unspecified. *)

val give : t -> Accals_bitvec.Bitvec.t -> unit
(** Return a buffer to the pool; zero-length buffers are dropped. *)

val pool_bytes : t -> int
(** Estimated bytes held by idle pooled buffers. *)

val trim : t -> int
(** Drop every idle pooled buffer and return how many were dropped. *)

val seed : t -> int -> Accals_bitvec.Bitvec.t -> unit
(** [seed t id b] overlays node [id] with [b], a buffer from {!take}. *)

val propagate :
  t -> Accals_network.Network.t -> sigs:Accals_bitvec.Bitvec.t array ->
  roots:int list -> int array -> unit
(** [propagate t net ~sigs ~roots order] evaluates, in [order], every node
    that is in [roots] or reads an overlaid fanin. A result bit-equal to
    the stored [sigs.(id)] is dropped, pruning the cone below; any other
    is overlaid. *)

val commit :
  t -> Accals_network.Network.t -> sigs:Accals_bitvec.Bitvec.t array ->
  roots:int list -> int array -> int list
(** As {!propagate}, but every changed signature replaces its [sigs] entry
    at once (the displaced buffer goes to the pool). Returns the changed
    nodes, last evaluated first, and leaves the overlay empty. *)

val outputs :
  t -> Accals_network.Network.t -> sigs:Accals_bitvec.Bitvec.t array ->
  Accals_bitvec.Bitvec.t array
(** Primary-output signatures seen through the overlay. *)

val release : t -> unit
(** Return every overlaid buffer to the pool and empty the overlay. *)
