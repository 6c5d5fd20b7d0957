(** Maximum fanout-free cones (MFFCs) on a frozen network, computed in
    place.

    An MFFC scratch holds a private copy of the fanout counts. Computing a
    cone dereferences the node's fanins in that copy (ABC-style deref/ref)
    and references them back before returning, so the copy always equals
    the counts it was made from between calls. One scratch serves any
    number of cones; it must not be shared between domains. *)

type t

val create : Network.t -> live:bool array -> fanout_counts:int array -> t
(** A scratch over the network as it stands. [fanout_counts] must be
    {!Structure.fanout_counts} of the network with the same [live] set; it
    is copied, never modified. *)

val counts : t -> int array
(** The scratch's fanout counts. Equal to the [fanout_counts] it was
    created from whenever no {!cone} call is running. *)

type cone

val cone : t -> int -> cone
(** MFFC of a node: the node plus every live non-input node that only
    feeds the cone (and drives no primary output). These are the nodes
    that die when the node's definition stops using them. *)

val nodes : cone -> int list
(** Cone members, the root last. *)

val area : cone -> float
(** [Cost.area_of_nodes] of {!nodes}. *)

val freed_area : t -> cone -> int list -> float
(** Area freed when the cone's root is redefined as a function of the
    given substitute nodes: the cone minus the members those nodes still
    need. Only the most recent {!cone} of the scratch may be passed;
    raises [Invalid_argument] otherwise. *)
