(** The [accals serve] daemon: a synthesis-as-a-service front end over
    the engine.

    One process owns a listening Unix-domain socket (and, optionally, a
    loopback TCP socket), a {!Scheduler} job table, a {!Cache} of
    finished results, and a pool of worker domains. Clients speak the
    newline-delimited JSON protocol of {!Protocol}: one request object
    per line, one response object per line, connections are persistent.

    Concurrency model: the main loop is single-threaded ([Unix.select]
    over the listeners, the live connections and a self-pipe) and is the
    only thread that touches sockets. Each running job gets its own
    worker domain, which runs [Engine.run] with [jobs = max 1 (jobs /
    max_concurrent)] domains of its own, stores the cache entry,
    attaches its trace and publishes an outcome; a one-byte write to the
    self-pipe wakes the select loop, which reaps the worker and settles
    the job. Settling is the one place a job becomes terminal — worker
    outcomes, queued cancels, deadline expiries and shutdown all go
    through it on the select loop — and it makes the scheduler
    transition together with every tally (finished-job counters,
    wait/run histograms, quarantine, incidents), so a [status] showing
    a terminal job is never ahead of [metrics] or [health].
    Cancellation is cooperative: the worker's checkpoint hook polls the
    job's cancel flag at every round boundary and unwinds through the
    engine's [Fun.protect], so the job's domains are released.

    Client sockets are non-blocking and responses are buffered per
    connection (bounded; overflow drops the connection), so a client
    that pipelines requests without reading responses cannot stall the
    event loop for the other tenants. {!create} ignores SIGPIPE
    process-wide ({!Graceful.ignore_sigpipe}): a peer that disconnects
    mid-response costs its own connection (EPIPE), never the daemon.

    Admission de-duplicates work at two levels keyed by
    {!Cache.key} (canonical circuit digest + result-determining
    parameters): a disk hit answers immediately with the stored result,
    and a duplicate of a queued/running job coalesces onto it instead of
    running twice.

    Crash safety: on graceful shutdown the daemon checkpoints the specs
    of unfinished jobs to [state_dir/queue.ckpt]
    ({!Accals_resilience.Checkpoint}) and re-admits them on the next
    start; the result cache lives on disk and needs no recovery.

    {b Overload protection.} Admission control bounds the queue: past
    [max_queue] total queued jobs, or [tenant_max_queued] for one
    tenant, a genuinely new submission (cache hits and coalesces are
    free and never shed) is rejected with a structured
    [code = "overloaded"] error carrying [retry_after_ms] — derived
    from the observed average run time and the backlog per slot.
    [tenant_max_running] additionally caps how many jobs one tenant
    may occupy slots with at once, enforced at pick time (over-quota
    jobs wait, they are not shed).

    {b Deadlines.} A submit may carry a wall-clock [deadline]; the
    per-tick sweep fails any job past it as [deadline_exceeded]
    (queued jobs never start) and records an {!Accals_audit.Incident}.
    A running worker first gets the cooperative cancel flag; if it is
    still not done [deadline_grace] seconds past the deadline it is
    {e abandoned} — domains cannot be killed, so the worker is moved
    off the slot-holding list (the slot is immediately reusable) and
    joined whenever it finally unwinds. Settling an already terminal
    job is a no-op, so a late outcome from an abandoned worker cannot
    overwrite the [deadline_exceeded] verdict.

    {b Quarantine.} A job fingerprint (cache key + budget) whose
    workers die abnormally [quarantine_threshold] times is refused
    admission for [quarantine_cooldown] seconds with
    [code = "quarantined"] — a crash-looping input cannot grind the
    service down. A successful run clears the fingerprint's history.

    {b Capacity.} With [cache_max_bytes > 0] the on-disk result cache
    is evicted after each store: corrupt entries first, then
    least-recently-used. The [health] request reports queue depth,
    slots, cache size, shed/deadline/quarantine totals and the
    daemon's open-fd count in one unprivileged round-trip. *)

module Metrics := Accals_telemetry.Metrics

type config = {
  socket : string;  (** Unix-domain socket path *)
  tcp : (string * int) option;  (** optional [host, port]; port 0 = ephemeral *)
  tcp_token : string option;
      (** shared secret required for privileged requests over TCP (see
          the {!Protocol} trust model); [None] refuses them there *)
  jobs : int;  (** total worker domains to spread over running jobs *)
  max_concurrent : int;  (** jobs running simultaneously *)
  max_queue : int;  (** queued-jobs bound before shedding; 0 = unlimited *)
  tenant_max_queued : int;  (** per-tenant queued bound; 0 = unlimited *)
  tenant_max_running : int;
      (** per-tenant running-slots cap (pick-time); 0 = unlimited *)
  deadline_grace : float;
      (** seconds past a job's deadline before its worker is abandoned *)
  quarantine_threshold : int;
      (** abnormal worker deaths per fingerprint before quarantine;
          0 disables quarantine *)
  quarantine_cooldown : float;  (** quarantine duration, seconds *)
  cache_dir : string option;  (** [None] disables the on-disk cache *)
  cache_max_bytes : int;  (** evict the cache past this; 0 = unlimited *)
  state_dir : string option;
      (** queue checkpoint + shutdown artifacts + incidents.jsonl *)
  default_samples : int;  (** when a submit omits [samples] *)
  max_memory_mb : int;
      (** per-job engine memory budget, passed through to
          {!Accals.Config.max_memory_mb}; 0 disables it.  A job the
          engine checkpoints and sheds under the budget fails with
          {!Scheduler.Resource_exhausted} and a [retry_after_ms] hint, and
          never counts toward quarantine. *)
  statedir_headroom_mb : int;
      (** free-space floor for the filesystem backing the cache and
          state dir: under it the result cache is evicted before new
          stores; 0 disables the proactive check (the reactive
          [ENOSPC] evict-and-retry paths always run). *)
  fd_reserve : int;
      (** descriptors kept free for the daemon's own files: new
          connections are refused with a structured
          [code = "resource_exhausted"] error once accepting one more
          would leave less than this under the soft [RLIMIT_NOFILE]. *)
  profile_dir : string option;
      (** run the sampling {!Accals_telemetry.Profiler} (CPU mode) for
          the daemon's lifetime and write [server.folded] +
          [server.profile.json] here at shutdown; [None] disables *)
  profile_hz : int;  (** profiler sampling rate *)
  log : bool;  (** chatter on stderr *)
}

val default_config : config
(** [socket = "accals.sock"], no TCP, no TCP token, [jobs = 0]
    (auto-detect), [max_concurrent = 2], [max_queue = 256],
    [tenant_max_queued = 64], [tenant_max_running = 0] (unlimited),
    [deadline_grace = 2.0], [quarantine_threshold = 3],
    [quarantine_cooldown = 300.0], no cache, [cache_max_bytes = 0], no
    state dir, [default_samples = 2048], [max_memory_mb = 0],
    [statedir_headroom_mb = 0], [fd_reserve = 8], no profiling,
    [profile_hz = 97], logging on. *)

type t

val create : config -> t
(** Bind the sockets, open the cache, re-admit any checkpointed queue.
    Raises [Unix.Unix_error] / [Failure] when a socket cannot be
    bound. *)

val tcp_port : t -> int option
(** The bound TCP port (useful with port 0). *)

val run : t -> unit
(** Serve until {!stop} is called (from a signal handler or another
    domain) or a client sends [shutdown]. On return the daemon has
    cancelled outstanding jobs, joined every worker, checkpointed the
    queue, written final metrics/event artifacts to [state_dir], and
    closed and unlinked its sockets. *)

val stop : t -> unit
(** Request a graceful shutdown; safe to call from a signal handler
    (atomic flag + self-pipe write). *)

val metrics : t -> Metrics.snapshot
(** Current server registry snapshot (jobs, cache, queue gauges). *)
