(** Persistent domain pool around one shared chunk queue.

    A pool spawns [jobs - 1] worker domains once and reuses them for every
    subsequent fan-out. Submitted work is cut into [min count (4 * jobs)]
    contiguous chunks and appended to one FIFO, guarded by the pool mutex;
    workers pop chunks and park when the queue is empty. The submitting
    domain helps while it awaits, so a [jobs]-pool applies [jobs] domains
    to each batch. With [jobs = 1] no domain is ever spawned and batches
    degenerate to a plain sequential loop — the sequential path stays the
    reference implementation.

    There is no per-batch barrier: {!fork} returns a {!ticket} without
    waiting, and several tickets can be in flight at once.

    Determinism: the chunk layout depends only on [jobs] and the count,
    and scheduling decides only {e which domain} computes an index, never
    what lands at it — task [i] must write only slot [i] of its output,
    and then results are bit-identical for every [jobs] value.

    {!run}, {!try_run}, {!fork} and {!await} must only be driven from one
    domain at a time (the engine's main loop); workers never submit
    batches themselves. *)

type t

type failure = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }
(** One task that raised: its index in the batch and what it raised. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs] must be at
    least 1. The workers park on a condition variable when idle. *)

val jobs : t -> int

val stats : t -> Stats.t
(** Shared work-accounting record; see {!Stats}. *)

val run : ?label:string -> t -> count:int -> (int -> unit) -> unit
(** [run t ~count task] executes [task 0 .. task (count - 1)], each exactly
    once, distributing indices over the pool's domains, and returns when all
    have finished. Tasks must not depend on execution order or domain
    placement. If any task raises, the whole batch still drains and the
    failure with the lowest index is re-raised in the caller. [label]
    names the fan-out in worker profiler samples and in the
    [pool.batch] trace span. *)

val try_run : ?label:string -> t -> count:int -> (int -> unit) -> failure list
(** Like {!run}, but collects failures instead of raising: the result lists
    every task that raised, in ascending index order (empty on full
    success). The whole index space always drains, so the caller can retry
    exactly the failed indices — see {!Fan_out}. *)

(** {1 Fork/join}

    Independent fan-outs can overlap: fork one, keep computing on the
    submitting domain (or fork more), and join later. Forked work runs
    entirely on the worker domains until {!await}, where the submitter
    helps drain. *)

type ticket
(** An in-flight (or already-inlined) fan-out. Await exactly once. *)

val fork : ?label:string -> t -> count:int -> (int -> unit) -> ticket
(** Submit without waiting. When the pool is sequential ([jobs = 1]) the
    tasks run inline before [fork] returns (the ticket is then already
    complete); otherwise even a single task goes to the queue, so the
    submitter can overlap its own work with it. *)

val await : t -> ticket -> failure list
(** Block until the ticket's batch has fully drained, popping and running
    queued chunks (of any ticket) meanwhile; each such chunk counts in
    the [steals] field of {!Stats.snapshot}. Returns the failures in
    ascending index order. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must be idle (no ticket
    outstanding). A pool that is never shut down leaks its domains until
    program exit. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)
