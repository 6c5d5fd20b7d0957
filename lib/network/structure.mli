(** Structural analyses over a {!Network.t}.

    All functions treat the network as it currently stands; after a
    {!Network.replace} the analyses must be recomputed. The AccALS engine
    recomputes them once per round. *)

val live_set : Network.t -> bool array
(** [live_set t].(id) is true when node [id] is reachable from some primary
    output through fanin edges (primary outputs themselves included). *)

val repeated : int array -> int -> bool
(** [repeated fis j] is true when [fis.(j)] already occurs among
    [fis.(0 .. j-1)]: the analyses count each distinct fanin once. *)

val topo_order : ?live:bool array -> ?live_only:bool -> Network.t -> int array
(** Topological order (fanins before fanouts). With [live_only] (default
    true) only live nodes appear. Passing [live] (a precomputed
    {!live_set}) avoids recomputing the liveness walk. *)

val fanouts : ?live_only:bool -> Network.t -> int array array
(** [fanouts t].(id) lists the nodes that use [id] as a fanin (each fanout
    listed once even if it uses [id] several times). *)

val levels : Network.t -> int array
(** Unit-delay level of every live node (inputs and constants at level 0);
    dead nodes get level 0. *)

val tfo_set : Network.t -> fanouts:int array array -> int -> Accals_bitvec.Bitvec.t
(** Transitive fanout of a node as a bitset over node ids (the node itself
    included). *)

type tfo_probe
(** Scratch for {!in_tfo}; not to be shared between domains. *)

val tfo_probe : Network.t -> topo_pos:int array -> tfo_probe
(** [topo_pos] maps node id -> position in a topological order of the
    live nodes, [-1] for dead nodes. *)

val in_tfo : tfo_probe -> target:int -> int -> bool
(** [in_tfo p ~target v] is [Bitvec.get (tfo_set t ~fanouts target) v]
    for a live [target], without walking the whole TFO: only [v]'s
    transitive fanins after [target] in topological order are visited, and
    answers are memoized until the probe is asked about another target. *)

val tfo_list :
  fanouts:int array array -> order:int array -> topo_pos:int array -> int -> int array
(** Transitive fanout of a node (the node excluded) in topological order:
    [order] lists the live nodes topologically and [topo_pos] is its
    inverse (node id -> position). Used for cone resimulation. *)

val shortest_path_bounded :
  Network.t -> fanouts:int array array -> src:int -> dst:int -> limit:int -> int option
(** Length (in edges) of the shortest directed path from [src] to [dst]
    following fanout edges, or [None] if it exceeds [limit] or there is no
    path. [Some 0] iff [src = dst]. *)

val fanout_counts : Network.t -> live:bool array -> int array
(** Number of distinct live fanout nodes per node, plus 1 for each primary
    output the node drives. *)
