(** Convenience combinators for constructing networks.

    All functions take the network first; ids returned by one call feed the
    next. Multi-bit values are [int array]s with the least-significant bit at
    index 0. *)

open Accals_network

val bus : Network.t -> string -> int -> int array
(** [bus t "a" 4] adds inputs a0..a3 and returns their ids, LSB first. *)

val const_ : Network.t -> bool -> int
val not_ : Network.t -> int -> int
val buf : Network.t -> int -> int
val and2 : Network.t -> int -> int -> int
val or2 : Network.t -> int -> int -> int
val xor2 : Network.t -> int -> int -> int
val nor2 : Network.t -> int -> int -> int
val xnor2 : Network.t -> int -> int -> int
val mux : Network.t -> sel:int -> int -> int -> int
(** [mux t ~sel a b] is [a] when [sel] else [b]. *)

val andn : Network.t -> int array -> int
val orn : Network.t -> int array -> int
val xorn : Network.t -> int array -> int
(** Balanced trees of 2-input gates; singleton arrays return the signal. *)

val half_adder : Network.t -> int -> int -> int * int
(** (sum, carry) *)

val full_adder : Network.t -> int -> int -> int -> int * int
(** (sum, carry) *)

val ripple_add : Network.t -> int array -> int array -> cin:int -> int array * int
(** Width-matched ripple-carry addition; returns (sums, carry out). *)

val ripple_sub : Network.t -> int array -> int array -> int array * int
(** [a - b] two's complement; returns (difference, borrow-free flag): the
    second component is 1 when [a >= b]. *)

val mux_bus : Network.t -> sel:int -> int array -> int array -> int array
(** Bitwise 2:1 select between equal-width buses. *)

val zero_detect : Network.t -> int array -> int
(** 1 when all bits are 0. *)

val set_output_bus : Network.t -> string -> int array -> (string * int) array
(** Name a bus for [Network.set_outputs]: ["s"] gives s0, s1, ... *)
