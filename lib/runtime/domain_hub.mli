(** Persistent domains for long-running jobs.

    Where {!Pool} fans one computation out over many domains, a hub runs
    {e whole independent jobs} (one thunk each) on a set of persistent
    domains that are spawned on demand and reused across jobs — the
    serve daemon's replacement for one ad-hoc [Domain.spawn] per job,
    so steady-state traffic stops paying domain spawn/join per request.

    Domains cannot be killed, so a wedged job cannot be reclaimed; it
    can only be {!abandon}ed: its domain is marked so that, should the
    thunk ever unwind, the domain exits instead of returning to the idle
    set (a later job is never scheduled behind a wedged one), and the
    hub simply spawns a fresh domain for the next {!submit}. This keeps
    the serve daemon's zombie-worker containment semantics intact.

    All hub operations are thread-safe; {!wait} may block. *)

type t

type handle
(** One submitted job. *)

val create : unit -> t

val submit : t -> (unit -> unit) -> handle
(** Run the thunk on an idle hub domain, spawning one if none is idle.
    The thunk's exceptions are swallowed by the hub (callers that care
    must catch inside the thunk — the serve daemon's job body already
    reports failures through its scheduler). Raises [Invalid_argument]
    after {!shutdown}. *)

val wait : handle -> unit
(** Block until the thunk has returned (or raised) and unwound. *)

val abandon : t -> handle -> unit
(** Mark the job's domain as not-reusable: when (if ever) the thunk
    unwinds, the domain exits instead of rejoining the idle set. No-op
    if the job already finished. *)

val spawned : t -> int
(** Domains spawned over the hub's lifetime (telemetry: steady-state
    traffic should keep this near the concurrency high-water mark). *)

val live : t -> int
(** Domains currently alive (idle or running). *)

val shutdown : t -> unit
(** Join every domain that can be joined: idle domains, busy
    non-abandoned domains (waits for their jobs), and abandoned domains
    whose thunk already unwound. Still-wedged abandoned domains are
    leaked — process exit reclaims them. Idempotent. *)
