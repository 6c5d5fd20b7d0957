(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic components of the library (input sampling, random LAC
    selection, simulated annealing) draw from this generator so that every
    experiment is reproducible from its seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val bits62 : t -> int
(** 62 uniformly random bits as a non-negative OCaml [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
