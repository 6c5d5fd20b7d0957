(** The degradation ladder: an explicit, reported state machine over the
    engine's selection modes.

    The engine starts at {!Incremental} (multi-LAC selection evaluated on
    the signature database) and only ever moves {e down}, once:
    [Incremental -> Single_lac]. The descent carries a {!reason} and the
    round it happened in. Transient events are recorded once per reason
    without changing the level: a first audit divergence (answered by
    reattaching a freshly built signature database), a round watchdog
    demoting one round to single-LAC, a run deadline or memory shed
    stopping the run, a certification rollback. The whole ladder is part of
    the engine snapshot, so a resumed run reports the same history, and
    escalates the same way, as an uninterrupted one. *)

type level = Incremental | Single_lac

type reason =
  | Audit_divergence  (** a shadow audit caught the fast path diverging *)
  | Watchdog_run  (** [--run-deadline] expired; run stopped degraded *)
  | Watchdog_round  (** [--round-deadline] demoted a round to single-LAC *)
  | Certification_rollback
      (** independent measurement rejected a result circuit *)
  | Resource_pressure
      (** the [--max-memory-mb] governor checkpointed and shed the run *)

type event = { round : int; level : level; reason : reason; transient : bool }

type t

val create : unit -> t
(** A ladder at {!Incremental} with no events. *)

val copy : t -> t
(** Snapshot-friendly deep copy (the event list is immutable and shared). *)

val level : t -> level
val events : t -> event list
(** Chronological. *)

val descend : t -> round:int -> reason:reason -> unit
(** Move permanently down to {!Single_lac}. No-op when already there — the
    ladder never climbs back up. *)

val note : t -> round:int -> reason:reason -> bool
(** Record a transient event at the current level, once per [reason]:
    [true] when recorded, [false] when that reason was already noted. *)

val level_to_string : level -> string
val reason_to_string : reason -> string

val summary : t -> string
(** Human-readable one-liner, e.g.
    ["incremental [audit_divergence@1] -> single-lac@4 (audit_divergence)"]. *)
