(** JSON serialization of {!Engine.report} — the one serializer behind the
    CLI's [--json] mode and the bench harness's report dumps, so the two
    can never drift apart.

    The encoding is deterministic (field order fixed, floats via the
    telemetry {!Accals_telemetry.Json} printer) and carries everything the
    printf report block shows: headline numbers, the degradation ladder
    derived from the incident list, the incidents themselves, certification outcome, runtime-pool stats and
    phase times. A [build] header ({!Accals_telemetry.Build_info.to_json})
    opens every document so an archived report can be tied back to the
    exact binary that produced it. Round rows are summarized by default ([~rounds:false])
    because the CSV trace already carries them; pass [~rounds:true] to
    inline them. *)

val to_json : ?rounds:bool -> Engine.report -> Accals_telemetry.Json.t
(** [~rounds] (default [false]) inlines one object per synthesis round. *)

val to_string : ?rounds:bool -> Engine.report -> string
(** [to_json] pretty-printed, with a trailing newline. *)
