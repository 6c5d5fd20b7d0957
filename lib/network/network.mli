(** Mutable combinational Boolean network.

    Nodes are identified by dense integer ids. A node is created once and
    its definition (operator + fanins) may later be replaced in place — this
    is how LACs are applied. Nodes are never deallocated; nodes that become
    unreachable from the primary outputs are simply excluded by the live-set
    analysis ({!Structure.live_set}) and by the cost model. {!Cleanup.compact}
    rebuilds a dense copy.

    The network must stay acyclic; {!replace} enforces this. *)

type t

type change =
  | Replaced of { id : int; old_op : Gate.op; old_fanins : int array }
      (** Node [id]'s definition changed; the event carries the previous
          definition (the new one is readable from the network). Only fired
          for real changes: a {!replace} that re-installs the identical
          definition is skipped. *)
  | Added of int  (** A node with this id was just allocated. *)
  | Outputs_changed of { old_ids : int array; old_names : string array }
      (** {!set_outputs} installed a different output table. *)

exception Cycle of int
(** Raised by {!replace} when the new definition would close a combinational
    cycle through the given node. *)

val create : ?name:string -> unit -> t

val name : t -> string

val set_name : t -> string -> unit

val add_input : t -> string -> int
(** Append a primary input; returns its node id. *)

val add_inputs : t -> string array -> int array
(** Append a batch of primary inputs in order; returns their node ids.
    Equivalent to mapping {!add_input}, but costs one input-table append
    for the whole batch — use it when creating many inputs (streaming
    readers), where repeated single appends would be quadratic. *)

val add_node : t -> Gate.op -> int array -> int
(** [add_node t op fanins] appends a gate. All fanins must be existing node
    ids. Raises [Invalid_argument] on arity violation or unknown fanin. *)

val set_outputs : t -> (string * int) array -> unit
(** Declare the primary outputs as (name, driver id) pairs, replacing any
    previous declaration. *)

val num_nodes : t -> int
(** Number of allocated node ids (including dead nodes). *)

val op : t -> int -> Gate.op

val fanins : t -> int -> int array
(** The fanin ids of a node. The returned array must not be mutated. *)

val inputs : t -> int array
(** Primary input ids, in declaration order. Do not mutate. *)

val outputs : t -> int array
(** Primary output driver ids, in declaration order. Do not mutate. *)

val output_names : t -> string array

val input_names : t -> string array

val is_input : t -> int -> bool

val replace : ?check_cycle:bool -> t -> int -> Gate.op -> int array -> unit
(** [replace t id op fanins] redefines node [id]. Raises {!Cycle} if the new
    fanin cone reaches [id] (checked unless [check_cycle:false]), and
    [Invalid_argument] on arity violations, on unknown fanins, or when [id]
    is a primary input. *)

val reaches : t -> src:int -> dst:int -> bool
(** True when there is a directed path of fanin edges from [dst] back to
    [src]; i.e. [src] is in the transitive fanin of [dst]. *)

val unsafe_set_def : t -> int -> Gate.op -> int array -> unit
(** Test hook: overwrite a node's operator and fanins with {e no} checks
    and {e no} change events — the supported way to inject precisely one
    invariant violation when property-testing {!validate}. Never use it in
    synthesis code; it can corrupt the network arbitrarily. *)

val eval : t -> bool array -> bool array
(** [eval t input_values] evaluates every primary output on one input
    vector (ordered as {!inputs}/{!outputs}). Reference semantics used as a
    test oracle for the bit-parallel simulator. *)

val copy : t -> t
(** Deep copy; node ids are preserved. The copy has no change tracker
    attached (and is therefore always safe to marshal). *)

val set_tracker : t -> (change -> unit) option -> unit
(** Attach (or with [None] detach) the single change listener. The listener
    fires after each mutation, with enough information to reconstruct the
    previous state; it is how [lib/sigdb] keeps its incremental structures
    in sync. Raises [Invalid_argument] when attaching over an existing
    listener. A network with a tracker attached must not be marshaled —
    checkpoint a {!copy} instead. *)

val truncate : t -> int -> unit
(** [truncate t n] forgets every node with id >= [n] (undo support for
    speculatively added nodes). The caller must guarantee that no surviving
    node and no primary output references the removed ids. Does not fire
    change events. *)

val digest : t -> string
(** Canonical structural digest: the SHA-256 of a canonical encoding,
    as 64 lowercase hex digits.

    The digest is computed over a canonical renumbering (pre-order DFS
    from the outputs in declaration order, fanins in order), so it is
    invariant under node-id renumbering of isomorphic builds and under
    dead nodes, the circuit name, and PI/PO {e names} — but sensitive to
    any change in the live logic: a single gate operator or fanin edit,
    a swapped pair of primary-input wires, or a reordered output list all
    produce a different digest.  Primary inputs hash as their declaration
    index (evaluation binds input values by position).

    This is the content address used by the result cache of the
    synthesis service ([lib/server]): two submissions whose networks
    digest equally are guaranteed to synthesize identically under equal
    (metric, bound, samples, seed).  The cache is shared across tenants
    and persisted across restarts, so the digest is cryptographic
    ({!Sha256}) — a constructed collision, not just an accidental one,
    would let one tenant poison another's cached result. *)

type violation = { node : int option; reason : string }
(** A broken structural invariant: the offending node (when one can be
    named) and a human-readable reason. *)

exception Invariant_violation of violation

val validate : t -> unit
(** Check structural invariants — per-node arity, fanin ranges, no
    self-loops, acyclicity, live PO drivers, and name-table consistency
    (PI/PO id and name tables pair up, Input operators and the input table
    agree in both directions). Raises {!Invariant_violation} naming the
    offending node on the first violation found. Run by the engine at round
    boundaries (when [Config.validate_rounds] is set) and always before a
    state is checkpointed. *)
