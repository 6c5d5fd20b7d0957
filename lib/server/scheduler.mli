(** Multi-tenant job table and scheduling policy for the daemon.

    The scheduler owns every job the daemon has admitted: a mutex-guarded
    table mapping job ids to their spec, lifecycle state, timestamps,
    event log and (once finished) result. The daemon's select loop asks
    {!pick} for the next job to run and makes every terminal transition
    through {!settle}; worker domains only append events and attach
    their engine trace. All mutation goes through this module's
    functions, so workers and the accept loop never race on a job
    record.

    Scheduling policy (deterministic given the table state):
    {ol
    {- strict priority — a higher [priority] job always runs first;}
    {- fair share within a priority — among equal-priority queued jobs,
       the tenant with the fewest currently running jobs wins, so one
       tenant flooding the queue cannot starve the others;}
    {- FIFO within a tenant — ties break on submission order.}}

    Lifecycle: [Queued -> Running -> Done | Failed | Cancelled], plus
    [Queued -> Cancelled | Failed] directly and [Done] at admission for
    cache hits. Cancellation of a running job is cooperative:
    {!request_cancel} sets a flag the worker polls at every round
    boundary (the engine's checkpoint hook), and the worker's outcome
    then settles the job. *)

module Json := Accals_telemetry.Json
module Protocol := Protocol
module Network := Accals_network.Network

type state = Queued | Running | Done | Failed | Cancelled

val state_to_string : state -> string

type failure =
  | Deadline_exceeded  (** the job outlived its client-supplied deadline *)
  | Resource_exhausted
      (** the engine checkpointed and shed the run under a resource
          budget *)
  | Error of string  (** the run raised; the exception text *)
(** Why a job failed. The first two are the environment's verdict, not
    the job's fault: neither counts toward quarantine. *)

val failure_to_string : failure -> string
(** The wire form ({!view}'s [v_failure]): ["deadline_exceeded"],
    ["resource_exhausted"], or the exception text. *)

type outcome = [ `Done of Cache.entry * bool | `Failed of failure | `Cancelled ]
(** How a job ends: [`Done (entry, degraded)], a failure, or a
    cancellation. *)

type job
(** Opaque; read through {!view} / {!result} / {!events}. *)

type t

val create : unit -> t

val submit :
  t ->
  spec:Protocol.job_spec ->
  circuit:string ->
  digest:string ->
  key:string ->
  ?net:Network.t ->
  ?cached:Cache.entry ->
  ?lookup_s:float ->
  unit ->
  job
(** Admit a job. With [cached] it is born [Done] with that result and
    marked as a cache hit. [net] is the parsed circuit a queued job
    holds until {!take_circuit} or {!settle} releases it. [circuit] is
    the display name. [lookup_s] is the cache-lookup cost the daemon
    paid at admission, drawn as the "cache.lookup" span in the merged
    trace. A job without a [spec.trace_id] gets one minted here, so
    every job is traceable. *)

val resolve : t -> Protocol.source -> (string * string) option
(** [(digest, circuit)] of the first admitted job with exactly this
    source (the same circuit name, or byte-for-byte the same BLIF text),
    so a repeat submission needs no rebuild to find its cache key.  Sound
    because building a source is deterministic.  The index holds one
    entry per distinct source of the retained job history, sharing the
    specs' strings. *)

val find : t -> string -> job option
val all : t -> job list
(** Submission order. *)

val id : job -> string
(** ["j-<seq>-<64 random bits in hex>"]: the readable sequence number
    plus an unguessable nonce, because [result]/[cancel] are keyed by
    nothing but the id. *)

val spec : job -> Protocol.job_spec
val key : job -> string
val digest : job -> string

val trace_id : job -> string
(** The job's trace-context id: the client's, or minted at admission.
    Always a valid {!Accals_telemetry.Trace_context} id. *)

val state : t -> job -> state

val active_by_key : t -> string -> budget:float option -> job option
(** The coalescing/in-memory-cache lookup: a [Queued]/[Running] job with
    this cache key and the same [budget], or a successfully (converged,
    non-degraded) [Done] one regardless of budget. *)

val pick : ?tenant_max_running:int -> t -> job option
(** Select the next queued job under the scheduling policy, mark it
    [Running], stamp [started_at], and return it. [None] when nothing is
    queued. With [tenant_max_running > 0], queued jobs of a tenant that
    already has that many jobs running are passed over (they wait, they
    are not shed) and the next tenant in policy order runs instead. *)

val cancel_requested : job -> bool
(** Polled by workers (atomic flag; no lock needed on the hot path). *)

val request_cancel : t -> job -> unit
(** Ask a running job's worker to unwind at its next round boundary
    (sets the flag {!cancel_requested} reads and logs a
    [cancel_requested] event). No-op unless the job is [Running]. *)

val note_run_begin : t -> job -> unit
(** The worker domain is about to enter the engine: closes the
    "dispatch" span (pick -> run) in the merged trace and logs a
    [run_begin] event. Idempotent; no-op once terminal. *)

val note_delivered : t -> job -> unit
(** A client fetched the job's result for the first time: closes the
    "result.delivery" span. Idempotent; no-op until terminal. *)

val attach_trace : t -> job -> Json.t list -> unit
(** Attach the job's engine-side Chrome-trace events, already rebased
    to absolute monotonic microseconds and relocated off lane 0 (the
    server uses {!Accals_telemetry.Tracer.events_json} with the
    tracer's epoch and a tid offset). They are appended verbatim to
    {!trace_events}. *)

val take_circuit : t -> job -> Network.t option
(** Hand the job's parsed circuit to its worker, releasing the job's
    reference; [None] once taken or settled. *)

val settle : t -> job -> outcome -> state option
(** Make a queued or running job terminal with [outcome], stamp its
    finish time, log the terminal event, release its circuit and set its
    cancel flag (so a worker still running it unwinds). Returns the
    state it left — [Queued] means the job never started — or [None]
    when the job was already terminal, in which case nothing changes:
    an abandoned worker's late outcome cannot overwrite the verdict. *)

val deadline_mono : job -> float option
(** The absolute monotonic deadline ([Clock.now]-based), if any. *)

val expired : t -> now:float -> job list
(** Queued or running jobs whose deadline is at or past [now], in
    submission order — the watchdog sweep's work list. *)

val totals : t -> int * int
(** [(queued, running)] across all tenants. *)

val tenant_load : t -> string -> int * int
(** [(queued, running)] for one tenant — the admission-control input
    for per-tenant quotas. *)

val record_event : t -> job -> string -> (string * Json.t) list -> unit
(** Append a timestamped event to the job's JSONL event log. *)

type view = {
  v_id : string;
  v_state : state;
  v_circuit : string;
  v_metric : string;
  v_bound : float;
  v_tenant : string;
  v_priority : int;
  v_cached : bool;
  v_degraded : bool;
  v_queue_position : int option;  (** 0-based among queued jobs, policy order *)
  v_submitted_at : float;  (** wall clock, Unix epoch seconds *)
  v_wait_s : float option;  (** submit -> start *)
  v_run_s : float option;  (** start -> finish *)
  v_failure : string option;  (** {!failure_to_string} *)
}

val view : t -> job -> view
val failure : t -> job -> failure option
val result : t -> job -> Cache.entry option
val events : t -> job -> Json.t list
(** Chronological. *)

val trace_events : t -> job -> Json.t list
(** The job's merged Chrome trace: lifecycle spans synthesized from its
    timestamps on lane 0 — [client.submit] (when the client sent a
    plausible same-machine [client_ts]), [cache.lookup], [queue.wait],
    [dispatch], [run], a terminal-state instant and [result.delivery] —
    followed by the engine events attached via {!attach_trace} on lanes
    1..n. One pid, every event tagged with the job's [trace_id];
    loadable in Perfetto as a single coherent timeline. *)

val counts : t -> (state * int) list
(** Jobs per state, for gauges. *)

val queued_specs : t -> Protocol.job_spec list
(** Specs of jobs that have not finished (queued or still running), in
    submission order — what a shutting-down daemon checkpoints so a
    restart can re-admit them. *)
