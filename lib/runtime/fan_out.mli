(** Deterministic fan-out over index ranges, arrays and lists, with bounded
    recovery from failed work units.

    Every function here splits its work into ordered units, runs the units
    on the pool's domains, and assembles results in submission order, so the
    output is bit-identical to a sequential run no matter how many domains
    execute it or how the scheduler interleaves them. Units are cut into
    chunks that idle domains take from the pool's shared queue, which
    load-balances irregular task costs without affecting where each
    result lands.

    [state]-carrying variants cut the elements into the pool's chunk
    layout themselves ([min n (4 * jobs)] contiguous chunks) and create
    one private scratch state per chunk with [state ()]; the state must
    be pure scratch — per-element results must not depend on which
    elements share a state, or determinism across [jobs] values is lost.

    {2 Failure recovery}

    A unit that raises (a real defect, or an injected
    {!Accals_resilience.Fault} crash) does not abort the fan-out: after the
    batch drains, the failed units — and only those — are resubmitted in
    ascending index order, up to two retries. Because results land by index
    and units must be pure, a recovered run is bit-identical to a
    failure-free one. Units still failing after the last attempt raise
    {!Runtime_failure} listing every dead unit, instead of leaking a bare
    worker exception. *)

exception
  Runtime_failure of {
    batch : int;  (** logical submission serial (see {!Accals_resilience.Fault}) *)
    attempts : int;  (** attempts made, including the first *)
    failed : (int * string) list;
        (** still-failing unit indices with their printed exceptions,
            ascending *)
  }

val max_attempts : int
(** Total attempts per unit (first run + retries). *)

val submit : ?label:string -> Pool.t -> count:int -> (int -> unit) -> unit
(** [submit pool ~count task] runs [task 0 .. task (count - 1)] with the
    retry policy above. All mapping functions below route through this;
    direct {!Pool.run} bypasses recovery. [label] names the fan-out in
    worker profiler samples and trace spans. *)

val map_array : ?label:string -> Pool.t -> f:('a -> 'b) -> 'a array -> 'b array
(** One task per element; [result.(i) = f arr.(i)]. *)

val map_list : ?label:string -> Pool.t -> f:('a -> 'b) -> 'a list -> 'b list

val map_array_with :
  ?label:string ->
  Pool.t ->
  state:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a array ->
  'b array
(** Elements are grouped into contiguous chunks; each chunk task calls
    [state ()] once and folds its elements through [f] left to right.
    Results land by element index. A retried chunk re-creates its scratch
    state and recomputes every one of its elements. *)

val map_list_with :
  ?label:string ->
  Pool.t ->
  state:(unit -> 's) ->
  f:('s -> 'a -> 'b) ->
  'a list ->
  'b list

val map_reduce :
  ?label:string ->
  Pool.t ->
  n:int ->
  map:(int -> 'b) ->
  merge:('b -> 'b -> 'b) ->
  init:'b ->
  'b
(** [map_reduce p ~n ~map ~merge ~init] computes [map i] for [0 <= i < n]
    in parallel and folds [merge] over the results in index order:
    [merge (... (merge init (map 0)) ...) (map (n-1))]. The merge runs on
    the submitting domain, so [merge] needs no synchronization and the
    association order is fixed — the result does not depend on [jobs]. *)

(** {2 Overlapping fork/join}

    For a side computation the submitting domain wants to overlap with
    its own sequential work: fork it, compute, then join before reading
    anything the forked tasks wrote. Unlike {!submit} there is no
    fault-injection hook and no retry — a task failure re-raises at
    {!join}. Publication of the forked tasks' writes to the joiner is
    guaranteed by {!Pool.await}. *)

val fork : ?label:string -> Pool.t -> count:int -> (int -> unit) -> Pool.ticket

val join : Pool.t -> Pool.ticket -> unit
(** Wait for a forked fan-out; re-raises the lowest-index failure, if
    any. Join each ticket exactly once. *)
