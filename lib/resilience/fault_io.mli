(** Deterministic syscall-level fault injection for durable-write paths.

    Where {!Fault} injects failures into pool {e tasks}, this module injects
    them into the individual I/O operations that persistence code performs:
    opening a file, writing bytes, fsyncing, renaming. Checkpoint saves,
    cache stores and artifact writers route their I/O through the wrappers
    below so a chaos run can make precisely the Nth write observe [ENOSPC],
    the Nth open observe [EMFILE], or a write land only a prefix of its
    bytes (a torn write) — and prove the recovery paths, instead of hoping
    for them.

    The spec comes from the [ACCALS_SYSCALL_FAULTS] environment variable:
    comma-separated clauses of the form

    {v
      seed:N               seed for probabilistic (%) clauses
      write:enospc@3       the 3rd governed write raises ENOSPC
      open:emfile@1..4     governed opens 1 through 4 raise EMFILE
      write:short@2        the 2nd write lands a prefix, then raises ENOSPC
      rename:enospc%8      each rename fails 1-in-8, keyed on (seed, count)
    v}

    Occurrence counts are 1-based and per-site (all governed writes share
    one counter, all governed opens another, ...). Probabilistic clauses
    are deterministic: the decision for occurrence [n] depends only on
    [(seed, site, n)], so a failing chaos run replays exactly. A malformed
    spec aborts the process at startup with exit code 2 — a typo'd spec
    silently running fault-free would defeat the test it was meant to arm. *)

type site = Open | Write | Rename | Fsync
type kind = Enospc | Emfile | Short

type clause = {
  site : site;
  kind : kind;
  sel : [ `At of int * int  (** inclusive 1-based occurrence range *)
        | `Every of int  (** 1-in-K, keyed on (seed, site, occurrence) *) ];
}

type spec = { seed : int; clauses : clause list }

val parse : string -> (spec, string) result
(** Parse an [ACCALS_SYSCALL_FAULTS] spec. *)

val arm : spec -> unit
(** Arm [spec] and reset the per-site occurrence counters, so tests get a
    fresh count regardless of earlier governed I/O. *)

val disarm : unit -> unit
val current : unit -> spec option

val injected_count : unit -> int
(** Total faults injected since the last {!arm} (or process start). *)

val kind_name : kind -> string

(** {2 Governed operations}

    Drop-in replacements for the stdlib/Unix calls on durable-write paths.
    With no spec armed they delegate directly. Injected failures surface as
    [Unix.Unix_error (ENOSPC | EMFILE, ...)], exactly as the real syscall
    would; a [Short] write first lands a prefix of the payload (torn file)
    and then raises [ENOSPC]. *)

val open_out_bin : string -> out_channel
val output_string : out_channel -> string -> unit
val output_bytes : out_channel -> bytes -> unit
val fsync : Unix.file_descr -> unit
val rename : string -> string -> unit
