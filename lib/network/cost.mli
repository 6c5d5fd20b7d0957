(** Normalized area/delay cost model.

    Stand-in for technology mapping with the MCNC library in the paper: every
    gate has an area and a delay normalized to the INV_X1 inverter. N-ary
    gates are costed as balanced trees of 2-input gates. The paper reports
    area/delay/ADP *ratios* between approximate and original circuits, which
    this consistent model preserves. *)

val gate_area : Gate.op -> int -> float
(** [gate_area op k] is the area of a gate with operator [op] and [k]
    fanins. Inputs, constants and buffers are free. *)

val area : Network.t -> float
(** Total area of live gates. *)

val delay : Network.t -> float
(** Critical-path delay over live gates. *)

val area_of_nodes : Network.t -> int list -> float
(** Sum of gate areas of an explicit node set (e.g. an MFFC). *)

val adp : Network.t -> float
(** Area-delay product. *)

val aig_node_count : Network.t -> int
(** Estimated size of the network's AND-inverter-graph representation
    (2-input AND nodes after decomposition; inverters are edge attributes
    and cost nothing). Used to pick the paper's size-dependent parameters
    and to report Table I's "#Nd" column. *)
