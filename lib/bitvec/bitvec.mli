(** Fixed-length bit vectors packed into OCaml [int] words.

    A [Bitvec.t] stores one bit per simulation pattern; bitwise operations
    over whole vectors give 62-way parallel logic simulation. All operations
    maintain the invariant that padding bits beyond [length] are zero, so
    [popcount] and [equal] are exact. *)

type t

val bits_per_word : int
(** Number of payload bits per word (62 on 64-bit platforms). *)

val create : int -> t
(** [create len] is an all-zero vector of [len] bits. *)

val length : t -> int

val copy : t -> t

val get : t -> int -> bool

val set : t -> int -> bool -> unit

val fill : t -> bool -> unit

val blit : src:t -> dst:t -> unit
(** Copy [src] into [dst]; lengths must match. *)

val equal : t -> t -> bool

val is_zero : t -> bool

val popcount : t -> int
(** Number of set bits. *)

val hamming : t -> t -> int
(** Number of positions at which the two vectors differ. *)

(** {1 Fused counts}

    Each is the [popcount] of a composition of the operations below,
    computed in one pass without building the intermediate vectors. The
    counting kernels ([popcount], [hamming] and every fused count) are C
    loops over the words that use the hardware popcount where the CPU has
    one; they allocate nothing. *)

val and_popcount : t -> t -> int
(** [popcount (logand a b)]. *)

val hamming_and : t -> t -> t -> int
(** [hamming_and t a b] is [hamming t (logand a b)]. *)

val hamming_or : t -> t -> t -> int
val hamming_xor : t -> t -> t -> int

val hamming_and3 : t -> t -> t -> t -> int
(** [hamming_and3 t a b c] is [hamming t (logand (logand a b) c)]. *)

val hamming_or3 : t -> t -> t -> t -> int
val hamming_xor3 : t -> t -> t -> t -> int

val hamming_mux : t -> sel:t -> t -> t -> int
(** [hamming_mux t ~sel a b] is [hamming t] of the [mux_into ~sel a b]
    result. *)

(** {2 Masked counts}

    [masked_hamming* m t ...] is [popcount (logand m (logxor t g))] for the
    gate output [g] named by the suffix: the samples inside [m] on which
    [t] and [g] differ. *)

val masked_hamming : t -> t -> t -> int
(** [masked_hamming m t a] counts the positions in [m] where [t] and [a]
    differ. *)

val masked_hamming_and : t -> t -> t -> t -> int
(** [masked_hamming_and m t a b] is [masked_hamming m t (logand a b)]. *)

val masked_hamming_or : t -> t -> t -> t -> int
val masked_hamming_xor : t -> t -> t -> t -> int
val masked_hamming_and3 : t -> t -> t -> t -> t -> int
val masked_hamming_or3 : t -> t -> t -> t -> t -> int
val masked_hamming_xor3 : t -> t -> t -> t -> t -> int

val masked_hamming_mux : t -> t -> sel:t -> t -> t -> int
(** [masked_hamming_mux m t ~sel a b] is [masked_hamming m t] of the
    [mux_into ~sel a b] result. *)

(** {1 Allocating bitwise operations} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** {1 In-place destination-style operations}

    [*_into a b ~dst] stores the result in [dst]; [dst] may alias an
    argument. These avoid allocation in simulation inner loops. *)

val logand_into : t -> t -> dst:t -> unit
val logor_into : t -> t -> dst:t -> unit
val logxor_into : t -> t -> dst:t -> unit
val lognot_into : t -> dst:t -> unit

val xor_or_into : t -> t -> dst:t -> unit
(** [xor_or_into a b ~dst] sets [dst = dst OR (a XOR b)]. *)

val mux_into : sel:t -> t -> t -> dst:t -> unit
(** [mux_into ~sel a b ~dst] sets [dst = (sel AND a) OR (NOT sel AND b)]. *)

val mux_popcount : sel:t -> t -> t -> int
(** [popcount] of the [mux_into ~sel a b] result, without building it. *)

val randomize : Prng.t -> t -> unit
(** Fill with uniformly random bits. *)

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val iter_set : t -> (int -> unit) -> unit
(** [iter_set v f] applies [f] to the index of every set bit, ascending. *)

val prefix_word : t -> int
(** The first machine word of the payload (up to 62 bits), usable as a fast
    similarity hash: equal vectors have equal prefix words. *)

val not_prefix_word : t -> int
(** [prefix_word (lognot t)], without building the complement. *)

val fold_words : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Fold over the payload words in order, for hashing/fingerprinting.
    Padding bits are always zero, so equal vectors fold identically. *)
