(** Ambient telemetry handle: one place the whole runtime reports to.

    The synthesis engine, pool, estimator, checkpoint writer and incident
    recorder all talk to the handle installed by {!install} — no telemetry
    parameter threads through their APIs. When nothing is installed every
    call is a no-op (the disabled handle has no tracer, no progress, no
    event stream, and a throwaway metrics registry), so instrumented code
    costs almost nothing in normal runs.

    Determinism contract: the handle only records. No synthesis decision
    ever reads it back, so enabling any combination of tracer / metrics /
    progress / events cannot change BLIF output, round traces,
    checkpoints or reports. *)

type t

val make :
  ?tracer:Tracer.t ->
  ?progress:Progress.t ->
  ?events:out_channel ->
  ?on_event:(Json.t -> unit) ->
  ?on_progress:
    (round:int -> max_rounds:int -> error:float -> area:float -> unit) ->
  unit ->
  t
(** [events] is a JSONL stream: one compact JSON object per
    {!event}, flushed per line. The channel is owned by the caller.
    [on_event] is an in-process sink called with the same object (after
    the channel write, if both are set) — the daemon uses it to route a
    job's engine events onto that job's event log. [on_progress] is the
    in-process analogue of the stderr {!Progress} heartbeat. Sinks run
    on the emitting domain and must be thread-safe. *)

val disabled : t
(** No tracer, no progress, no events; metrics go to a registry nobody
    exports. This is the installed handle at startup. *)

val install : t -> unit
val reset : unit -> unit
(** Reinstall {!disabled}. *)

val get : unit -> t
(** The effective handle: the calling domain's local override when one
    is set (see {!with_handle} / {!set_local}), the globally installed
    handle otherwise. *)

(** {1 Domain-local override}

    The daemon runs several jobs concurrently in separate worker
    domains; a single global handle would interleave their traces. A
    domain-local override scopes a handle to one domain, and
    [Pool.create] captures the creating domain's effective handle for
    its workers, so a job's whole engine — orchestrator and pool
    workers — reports to that job's handle. *)

val with_handle : t -> (unit -> 'a) -> 'a
(** Run a thunk with [t] as the calling domain's effective handle; the
    previous override is restored afterwards (even on raise). *)

val set_local : t -> unit
(** Set the calling domain's override without scoping — used by pool
    workers at domain startup. *)

(** {1 Tracing} *)

val tracing : unit -> bool
(** True when the installed handle has a tracer. *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run a thunk under a span on the ambient tracer; just the thunk when
    tracing is off. *)

type span
(** An open ambient span — [None]-like when tracing is off. Carries its
    tracer, so it closes correctly even if the handle changes mid-span. *)

val begin_span : ?cat:string -> ?args:(string * Json.t) list -> string -> span
val end_span : ?args:(string * Json.t) list -> span -> unit
(** Close the span, appending [args] to the ones it was opened with. *)

val instant : ?cat:string -> ?args:(string * Json.t) list -> string -> unit

(** {1 Metrics} *)

val metrics : unit -> Metrics.t
(** The installed handle's registry (per-run when installed by the CLI;
    a throwaway on the disabled handle). *)

val count : ?labels:Metrics.labels -> ?help:string -> string -> int -> unit
(** Add to a counter in the ambient registry. *)


(** {1 Events and progress} *)

val event : (unit -> Json.t) -> unit
(** Append one line to the JSONL event stream if one is attached; the
    thunk is not evaluated otherwise. *)

val progress_round :
  round:int ->
  max_rounds:int ->
  error:float ->
  threshold:float ->
  area:float ->
  unit

val progress_finish : unit -> unit
