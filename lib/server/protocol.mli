(** Wire protocol of the [accals serve] daemon.

    Newline-delimited JSON over a Unix-domain (or TCP) socket: each
    request is one JSON object on one line, each response is one JSON
    object on one line. The codec reuses the dependency-free
    {!Accals_telemetry.Json} tree; requests are parsed with the hardened
    limits ({!max_request_bytes}, nesting depth) because the daemon reads
    them from untrusted clients.

    Requests carry a ["req"] discriminator:
    - [submit]: a synthesis job — inline BLIF text (["circuit"]) or a
      registered benchmark name (["name"]), plus ["metric"], ["bound"]
      and optional ["budget"] (seconds), ["priority"] (higher runs
      first), ["tenant"] (fair-share identity), ["samples"], ["seed"].
    - [status] / [result] / [cancel] / [trace] / [events]: per-job, keyed
      by ["job"].
    - [list], [metrics], [ping], [shutdown]: server-wide.

    Responses always carry ["ok"] ([true]/[false]); failures add
    ["error"].

    {b Trust model.} The Unix-domain socket is the trusted control
    plane: whoever can open it (filesystem permissions on the socket
    path) can do everything.  TCP is for remote {e submission and
    observation} only — requests classified {!privileged} (result,
    cancel, trace, events, shutdown) are refused on TCP connections
    unless the daemon was started with a shared [--tcp-token] and the
    request carries a matching ["token"] field.  The token travels in
    clear text, so TCP mode is still only for trusted networks. *)

module Json := Accals_telemetry.Json
module Metric := Accals_metrics.Metric

type source =
  | Blif_text of string  (** inline BLIF document *)
  | Named of string  (** registered benchmark name *)

type job_spec = {
  source : source;
  metric : Metric.kind;
  bound : float;
  budget : float option;  (** per-job run-deadline, seconds *)
  deadline : float option;
      (** wall-clock deadline in seconds from submission; past it the
          job is failed as [deadline_exceeded] — in-queue (never
          started) or in-flight (slot reclaimed by the watchdog).
          Unlike [budget], which degrades gracefully to the best
          circuit found, a deadline is a hard fault. *)
  priority : int;  (** default 0; higher is scheduled first *)
  tenant : string;  (** fair-share identity; default ["default"] *)
  samples : int option;  (** [None]: the server default *)
  seed : int;  (** default 1 *)
  trace_id : string option;
      (** 16-hex trace-context id (see
          {!Accals_telemetry.Trace_context}). The client mints one per
          submission (or the user forces one with [--trace-id]); every
          span the daemon records for the job — queue-wait, dispatch,
          engine rounds, delivery — is tagged with it, so the [trace]
          request returns one merged Chrome trace for the whole job.
          Validated on parse: a malformed id rejects the submit. *)
  client_ts : float option;
      (** Client's monotonic clock (seconds) at submit. Comparable with
          the daemon's clock on the same machine (Unix socket), letting
          the merged trace include a client-submit span. *)
}

type request =
  | Submit of job_spec
  | Status of string
  | Result of string
  | Cancel of string
  | List
  | Metrics
  | Health
      (** load-balancer probe: queue depth, slots, cache size, shed /
          deadline / quarantine counters, open fds, uptime, build
          identity *)
  | Trace of string
  | Events of string
  | Ping
  | Shutdown

val max_request_bytes : int
(** Upper bound on one request line (16 MiB — a large BLIF fits, a
    hostile stream does not). Servers close the connection when a line
    exceeds it. *)

val version : int
(** Major protocol version, stamped on every encoded request as ["v"].
    Servers refuse other versions with a structured
    [code = "unsupported_version"] error carrying their own version; a
    request without ["v"] is treated as version 1. *)

val request_to_json : request -> Json.t

val parse_request : string -> (request, string) result
(** Parse one request line under the hardened limits. *)

type reject =
  | Malformed of string  (** bad JSON or a bad request shape *)
  | Unsupported_version of int  (** the client's ["v"] *)

val parse_request_v : string -> (request * string option, reject) result
(** As {!parse_request}, also returning the optional ["token"] field —
    parsed from the same JSON tree, so a 16 MiB submit is decoded once —
    with a typed rejection, so servers can
    answer an {!Unsupported_version} with the structured error instead
    of a generic parse failure. *)

val reject_message : reject -> string

val with_token : string option -> Json.t -> Json.t
(** Attach a ["token"] field to an encoded request (client side). *)

val privileged : request -> bool
(** Whether the request controls or reads other tenants' jobs and hence
    requires the shared token over TCP (see the trust model above). *)

val error_response : string -> Json.t
(** [{"ok": false, "error": msg}]. *)

val error_response_code :
  code:string -> ?extra:(string * Json.t) list -> string -> Json.t
(** [{"ok": false, "error": msg, "code": code, ...extra}] — a
    structured failure clients can react to without parsing the
    message. Codes in use: ["overloaded"] (with ["retry_after_ms"]),
    ["quarantined"] (with ["retry_after_ms"]),
    ["unsupported_version"] (with ["v"], the server's version). *)

val ok_response : (string * Json.t) list -> Json.t
(** [{"ok": true, ...fields}]. *)
