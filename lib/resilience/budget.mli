(** Memory, disk and file-descriptor budgets for long-lived processes.

    Each governor is a cheap observation layer: it tells callers how close
    the process is to a configured ceiling, and the callers (engine round
    loop, server accept loop, cache store path) decide what to shed or
    degrade. Nothing here takes corrective action on its own — policy lives
    with the state it must protect.

    All probes degrade gracefully on platforms where the underlying
    facility is missing: they report "unknown" and the governors built on
    them stand down rather than enforce a limit against a guessed value. *)

(** Heap accounting for the [--max-memory-mb] watchdog. The base sample is
    the GC's major-heap size; registered sources add bytes the GC cannot
    see proportionally (Bigarray-backed sigdb arenas, pooled signature
    buffers). *)
module Memory : sig
  type t

  val create : limit_bytes:int -> t
  (** [limit_bytes <= 0] disables enforcement; sampling still works. *)

  val limit_bytes : t -> int

  val register_source : t -> name:string -> (unit -> int) -> unit
  (** Register a live byte counter (called at every {!sample}). Sources are
      process-wide per governor; registering under an existing name
      replaces the old source. *)

  val sample : t -> int
  (** Current footprint estimate in bytes: GC major heap words times word
      size, plus every registered source. *)

  (** Escalation level for the sampled footprint against the limit.
      [Soft] (>= 85% of the limit) asks for cheap relief — dropping caches
      and pools that only cost time to rebuild. [Hard] (>= 100%) demands a
      structural response: degrade the backend, then checkpoint and shed. *)
  type pressure = Nominal | Soft | Hard

  val classify : t -> bytes:int -> pressure
  (** Classify an externally taken sample against the limit. Always
      [Nominal] when the limit is off. *)

  val pressure : t -> pressure
  (** [classify t ~bytes:(sample t)]. *)
end

(** Free-space accounting for the shared [--state-dir]. *)
module Disk : sig
  val free_bytes : string -> int option
  (** Free bytes on the filesystem backing [path] (statvfs [f_bavail]
      — what an unprivileged write can actually use). [None] when the
      probe fails. *)

  val usage_bytes : string -> int
  (** Recursive byte total of the files under [path]; 0 when the directory
      is missing. Symlinks are not followed. *)

  val has_headroom : dir:string -> headroom_bytes:int -> bool
  (** Whether the filesystem backing [dir] has at least [headroom_bytes]
      free. [true] when the probe fails or the reservation is [<= 0] —
      an unknown filesystem must not refuse work. *)

  val ensure_dir : string -> unit
  (** Create [dir] and any missing parents ([mkdir -p]); a directory
      another process creates concurrently is not an error. *)
end

(** File-descriptor accounting for the accept loop. *)
module Fd : sig
  val open_fds : unit -> int option
  (** Count of open descriptors (via [/proc/self/fd]); [None] where that
      interface is missing. *)

  val limit : unit -> int option
  (** The soft [RLIMIT_NOFILE] ceiling; [None] when unlimited or the probe
      fails. *)

  val should_accept : reserve:int -> bool
  (** Whether accepting one more connection still leaves [reserve]
      descriptors of slack under the soft limit. [true] when either probe
      is unavailable — shedding must only happen on evidence. *)
end
