(** Monotonic time source for all telemetry timestamps.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via a C stub — wall-clock
    steps (NTP corrections, manual [date] changes) cannot produce negative
    durations or reorder span timestamps. The epoch is arbitrary (boot
    time on Linux); only differences are meaningful. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock. Alloc-free. *)

val now : unit -> float
(** Seconds on the monotonic clock (same epoch as {!now_ns}). *)

val cpu : unit -> float
(** Seconds of CPU consumed by the whole process
    ([CLOCK_PROCESS_CPUTIME_ID]). Unlike wall time it is barely disturbed
    by other tenants of the machine, which makes it the right clock for
    overhead gates. *)

val ns_to_us : int64 -> float
(** Nanoseconds to fractional microseconds (the Chrome trace unit). *)
