(** Blocking client for the daemon's newline-delimited JSON protocol —
    the library under [accals client] and the bench load generator. *)

module Json := Accals_telemetry.Json

type t

(** Connecting ignores SIGPIPE process-wide ({!Graceful.ignore_sigpipe})
    so a daemon that disconnects mid-request surfaces as an [Error], not
    a dead client process.  [?token] is attached to every request — the
    daemon requires it for privileged requests over TCP. *)

val connect_unix : ?token:string -> string -> t
(** Connect to a Unix-domain socket. Raises [Unix.Unix_error]. *)

val connect_unix_retry : ?policy:Backoff.t -> ?token:string -> string -> t
(** Retry [connect_unix] under a {!Backoff} schedule (default
    {!Backoff.default}: jittered exponential, 30s total budget) — for
    racing a daemon that is still booting. Raises the last error once
    the schedule is exhausted. *)

val connect_tcp : ?token:string -> string -> int -> t
(** Connect to [host, port]. Raises [Unix.Unix_error] / [Failure]. *)

val close : t -> unit

val rpc : t -> Protocol.request -> (Json.t, string) result
(** Send one request, read one response line. [Error] on connection
    loss or a malformed response; a server-side [{"ok": false}] is
    still [Ok] — inspect with {!ok} / {!error_message}. A response the
    daemon sent before closing (e.g. the unprompted
    [code = "resource_exhausted"] shed under fd pressure) is drained
    and returned even when sending the request itself failed. *)

val ok : Json.t -> bool
(** The response's ["ok"] field. *)

val error_message : Json.t -> string
(** The response's ["error"] field (or a placeholder). *)

val error_code : Json.t -> string option
(** The response's structured ["code"] field, e.g. ["overloaded"]. *)

val retry_after : Json.t -> float option
(** The response's ["retry_after_ms"] hint, converted to seconds. *)

val rpc_retry :
  ?policy:Backoff.t -> t -> Protocol.request -> (Json.t, string) result
(** As {!rpc}, but re-send the request while the daemon rejects it with
    [overloaded] / [quarantined] / [resource_exhausted], under a
    {!Backoff} schedule (default {!Backoff.default}) that honors the
    daemon's [retry_after_ms] hint as a per-step floor. Once the
    policy's [max_total] sleep budget is exhausted, the last rejection
    is the answer. *)

val submit : t -> Protocol.job_spec -> (string * bool, string) result
(** Submit and return [(job id, cached)]; [Error] on rejection. *)

val submit_retry :
  ?policy:Backoff.t -> t -> Protocol.job_spec -> (string * bool, string) result
(** As {!submit}, retrying like {!rpc_retry}. Safe because submissions
    are content-addressed: a retry coalesces onto the first attempt or
    hits its cache entry, never duplicating work. [Error] naming the
    attempts and the time slept once the policy's [max_total] sleep
    budget is exhausted. *)

val wait :
  ?poll_interval:float ->
  ?timeout:float ->
  t ->
  string ->
  (Json.t, string) result
(** Poll [status] until the job reaches a terminal state (polling every
    [poll_interval] seconds, default 0.05), then fetch and return the
    [result] response. [Error] after [timeout] seconds (default: no
    timeout). *)

val ping : t -> bool
(** One ping round-trip; [false] on any failure. *)

val health : t -> (Json.t, string) result
(** The daemon's [health] response (queue depth, slots, cache size,
    shed / deadline / quarantine totals, open fds). *)
