(** Truth tables over up to 6 variables, packed into one [int].

    Bit [m] of the table is the function value on minterm [m] (variable [i]
    contributes bit [i] of [m]). Used to compute the exact local function of
    a cut and to manipulate it during SOP rewriting. *)

type t = int
(** Only the low [2^vars] bits are meaningful; all operations take the
    variable count explicitly and keep padding bits zero. *)

val max_vars : int
(** 6: 64 minterm bits fit the OCaml int. *)

val rows : int -> int
(** [rows vars] = [2^vars]. *)

val mask : int -> t
(** All-ones table for [vars] variables. *)

val const_ : int -> bool -> t

val var : int -> int -> t
(** [var vars i] is the projection on variable [i]. *)

val get : t -> int -> bool
(** Value on a minterm. *)

val set : t -> int -> bool -> t

val lognot : int -> t -> t

val ones : int -> t -> int
(** Number of ON-set minterms. *)

type scratch
(** Reusable per-node working memory for {!of_cone}; one per domain. *)

val scratch : unit -> scratch
(** Empty scratch; it grows to the network on first use. *)

val of_cone :
  ?scratch:scratch -> Accals_network.Network.t -> leaves:int array -> root:int -> t
(** Exact local function of [root] in terms of [leaves]: every path from
    [root] must reach a leaf or a constant; raises [Invalid_argument] when
    the cone escapes the leaves (i.e. the leaves are not a cut) or when
    there are more than {!max_vars} leaves. [scratch] (a fresh one by
    default) holds the walk's per-node memo. *)
