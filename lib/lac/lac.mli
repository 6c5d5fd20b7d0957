(** Local approximate changes (LACs).

    A LAC [L(S_n, n)] replaces the function of a target node (TN) [n] by a
    new function over existing substitute nodes (SNs). Supported kinds cover
    the literature's workhorses: constant replacement, SASIMI-style
    wire/inverted-wire substitution [7], ALSRAC-style resubstitution with a
    fresh 2- or 3-input gate over existing signals [9], and SOP cut
    rewriting [15]. *)

open Accals_network

type kind =
  | Const0
  | Const1
  | Wire of int  (** replace by an existing signal *)
  | Inv_wire of int  (** replace by the negation of an existing signal *)
  | Gate2 of Gate.op * int * int  (** replace by [op] of two existing signals *)
  | Gate3 of Gate.op * int * int * int
      (** 3-input resubstitution; for [Mux] the first signal is the select *)
  | Sop of sop
      (** cut rewriting: replace the target by a fresh two-level cover over
          the cut leaves (the approximate-cut LAC family of [15]) *)

and sop = { leaves : int array; cubes : Accals_twolevel.Qm.cube list }

type t = {
  target : int;  (** the TN *)
  kind : kind;
  area_gain : float;  (** area expected to be freed when applied *)
  delta_error : float;  (** estimated error increase ΔE; [nan] until scored *)
}

val make : target:int -> kind -> area_gain:float -> t
(** A fresh, unscored LAC ([delta_error = nan]). *)

val with_delta : t -> float -> t

val substitute_nodes : t -> int list
(** The SNS of the LAC (empty for constants). *)

val new_definition : t -> Gate.op * int array
(** Operator and fanins that {!apply} installs at the target. Raises
    [Invalid_argument] for [Sop] kinds, whose replacement is a multi-gate
    structure — use {!apply}. *)

val conflicts : t -> t -> bool
(** Type-1 (same TN) or Type-2 (an SN of one is the TN of the other)
    conflict, per Section II-C of the paper. *)

val apply : Network.t -> t -> unit
(** Install the LAC's new definition at its target. Raises {!Network.Cycle}
    when the substitution would close a combinational cycle. *)

val apply_many : Network.t -> t list -> t list * t list
(** Apply a conflict-free LAC list in the given order with an incremental
    acyclicity guard; returns (applied, skipped). Chained substitutions can
    close cycles that the two pairwise conflict types cannot see (see
    DESIGN.md); such LACs are skipped, never partially applied. *)

val describe : t -> string
(** Human-readable form, e.g. ["L({12,17}, 40) or2 gain=3.0 dE=0.0123"]. *)
