(** A run's degradation state, derived from its incident list.

    The engine records one {!Incident.t} per anomaly and nothing else;
    everything below is a pure function of that list, so a resumed run
    (whose snapshot carries the incidents) derives the same state and
    escalates the same way as an uninterrupted one.

    The engine starts at {!Incremental} (multi-LAC selection on the
    signature database). The first audit divergence is a transient note:
    the run reattaches a fresh database and carries on. The second moves
    the run permanently to {!Single_lac}, and the third stops it. The first
    run-watchdog expiry, round-watchdog expiry, resource exhaustion and
    certification violation are each one transient note. *)

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
(** A transient note, or ([transient = false]) the descent to
    {!Single_lac}; [level] is the level after the event. *)

type t = {
  level : level;
  stopped : bool;  (** a divergence at {!Single_lac}: the run must stop *)
  reason : reason option;
      (** why the run degraded: the first audit divergence, run-watchdog
          expiry or resource exhaustion; [None] when it did not *)
  events : event list;  (** chronological *)
}

val of_incidents : Incident.t list -> t
(** Derive the state from a chronological incident list. Incidents that
    are not engine anomalies (corrupt checkpoints, service-side records)
    do not count. *)

val level_to_string : level -> string
val reason_to_string : reason -> string

val summary : t -> string
(** Human-readable one-liner, e.g.
    ["incremental [audit_divergence@1] -> single-lac@4 (audit_divergence)"]. *)
