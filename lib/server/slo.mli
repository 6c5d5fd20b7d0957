(** Per-tenant SLO accounting for the daemon.

    The server reports every finished job here with its phase latencies
    (queue-wait, run, end-to-end) and outcome; admission-control rejects
    and jobs that ended without starting are reported through
    {!observe_shed}. The module keeps, per tenant:

    - fixed-bucket latency histograms per phase (seconds), from which
      the [slo] protocol request serves interpolated p50/p90/p99;
    - an outcome breakdown — [good] (succeeded within the target),
      [violated] (succeeded but slow), and a count per failure kind
      ([deadline_exceeded], [resource_exhausted], [shed], ...);
    - a rolling one-hour ring of one-minute good/bad counts, from which
      the error-budget {e burn rate} is derived: the observed bad
      fraction divided by the allowed bad fraction [1 - objective].
      1.0 means the tenant is burning exactly its error budget; 0 is
      clean; anything well above 1 is an incident.

    A job is {e good} iff it succeeded and its end-to-end latency is at
    most [target_ms]. Everything else — slow successes, failures,
    sheds — is {e bad} and burns budget.

    Thread-safety: one internal mutex, so any thread may observe or
    export; the daemon does both from its select loop.

    Export: {!to_json} serves the [slo] protocol request (and [accals
    top]); {!registry_snapshot} mirrors the accounting into Prometheus
    instruments ([accals_slo_latency_seconds],
    [accals_slo_jobs_total], [accals_slo_burn_rate]) that the server
    merges into its [metrics] exposition. *)

module Json := Accals_telemetry.Json
module Metrics := Accals_telemetry.Metrics

type spec = {
  target_ms : float;  (** good jobs finish end-to-end within this *)
  objective : float;  (** target good fraction, in (0, 1), e.g. 0.99 *)
}

val default_spec : spec
(** 30 s at 99%. *)

type t

val create : ?spec:spec -> unit -> t
(** Raises [Invalid_argument] on a non-positive [target_ms] or an
    [objective] outside (0, 1). *)

val spec : t -> spec

val observe_job :
  t ->
  tenant:string ->
  ?failure:string ->
  wait_s:float ->
  run_s:float ->
  total_s:float ->
  unit ->
  unit
(** Account one finished job. Without [failure] the job succeeded and
    is [good] or [violated] depending on [total_s] vs the target; with
    [failure] (a kind such as ["deadline_exceeded"]) it burns
    budget under that kind. Latencies are observed either way — a
    deadline-exceeded job's queue-wait is exactly the signal the
    histogram is for. *)

val observe_shed :
  t -> tenant:string -> kind:string -> unit
(** Account an outcome without latencies — an admission-control reject,
    or a job cancelled or expired while queued. Burns budget under
    [kind], e.g. ["shed"], ["cancelled"] or ["deadline_exceeded"]. *)

val burn_rate : t -> tenant:string -> float
(** Current burn rate over the rolling window; 0 for an unknown tenant
    or one with no traffic in the window. *)

val to_json : t -> Json.t
(** The [slo] response body: spec, then per tenant (sorted by name) the
    outcome breakdown, burn rate, window counts and per-phase latency
    percentiles in milliseconds. *)

val registry_snapshot : t -> Metrics.snapshot
(** Refresh the burn-rate gauges and snapshot the Prometheus mirror,
    for merging into the server's metrics exposition. *)
