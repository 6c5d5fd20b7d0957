(** Hierarchical span tracer emitting Chrome trace-event JSON.

    Spans are recorded as "X" (complete) events with microsecond [ts] and
    [dur] taken from the monotonic {!Clock}; point-in-time marks are "i"
    (instant) events. The output is the array form of the Chrome
    trace-event format, loadable in Perfetto or [chrome://tracing].

    Threads: each domain registers a small integer [tid] through
    {!set_tid} (the pool assigns worker [i] tid [i+1]; the main domain is
    tid 0). Thread-name metadata ("M") events are emitted on export so
    Perfetto shows "main" / "worker-N" lanes.

    The tracer never reorders or drops events and is safe to use from any
    domain (one mutex around the event list; spans themselves are plain
    values so nesting needs no shared state). *)

type t

type span
(** An open span: created by {!begin_span}, closed by {!end_span}. The
    span remembers its tracer, so it stays valid even if the ambient
    telemetry handle changes mid-span. *)

val create : unit -> t

val set_tid : int -> unit
(** Register the calling domain's thread id for subsequent events.
    Defaults to 0 (main). *)

val begin_span :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> span

val end_span : ?args:(string * Json.t) list -> span -> unit
(** Record the complete event, with [args] (known only once the span's
    work is done) after the ones given to {!begin_span}. Calling
    [end_span] twice on the same span records the event twice — callers
    close each span exactly once (typically via [Fun.protect]). *)

val with_span :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a thunk; the span is closed even if the
    thunk raises. *)

val instant :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Record an "i" (instant) event at the current time. *)

val event_count : t -> int
(** Number of span/instant events recorded so far (metadata events not
    included). *)

val to_json : t -> Json.t
(** The full trace as a Chrome trace-event array: thread-name metadata
    events first, then all recorded events sorted by timestamp. *)

val epoch_us : t -> float
(** The tracer's creation time in microseconds on the monotonic clock —
    the offset to pass to {!events_json} to rebase its relative
    timestamps onto absolute monotonic time. *)

val events_json :
  ?ts_offset_us:float ->
  ?tid_offset:int ->
  ?pid:int ->
  ?thread_name:(int -> string) ->
  t ->
  Json.t list
(** Export for merging into a host timeline: thread-name metadata plus
    all events, with [ts_offset_us] added to every timestamp,
    [tid_offset] added to every lane id, [pid] overriding the process id
    and [thread_name] renaming lanes (it receives the original tid).
    Used by the daemon to graft a job's engine trace onto the
    scheduler's lifecycle spans as one Chrome trace. *)

val write : t -> string -> unit
(** Write [to_json] to a file (pretty-printed). *)
