(** Bounded k-smallest selection over a stream of keyed items. *)

type 'a t
(** A selection in progress: at most [k] items, with their keys. *)

val create : k:int -> 'a t
(** An empty selection keeping the [k] best items ([k <= 0] keeps none). *)

val push : 'a t -> rank:float -> gain:float -> 'a -> unit
(** Offer the next item of the stream. Items are ordered by ascending
    [rank], then descending [gain], then emission order, so ties are
    total. An item that does not beat the worst one kept allocates
    nothing. Ranks and gains must not be NaN. *)

val pushed : 'a t -> int
(** Items offered so far. *)

val sorted : 'a t -> (float * 'a) array
(** The kept items with their ranks, best first: the stream stable-sorted
    by (rank, descending gain) and truncated to [k], in O(n log k) time
    and O(k) space. *)
