(** Bounded k-smallest selection over a stream. *)

val smallest : k:int -> compare:('a -> 'a -> int) -> (('a -> unit) -> unit) -> 'a list
(** [smallest ~k ~compare iter] is the [k] smallest elements that [iter]
    passes to its callback, under [compare], sorted ascending — equal to
    [List.sort compare items] truncated to [k] for the same items, in
    O(n log k) time and O(k) space. [compare] must be a total order (break
    ties down to a unique key such as the emission index) for the result
    to be deterministic. *)
