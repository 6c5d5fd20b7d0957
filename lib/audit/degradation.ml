type level = Incremental | Single_lac

type reason =
  | Audit_divergence
  | Watchdog_run
  | Watchdog_round
  | Certification_rollback
  | Resource_pressure

type event = { round : int; level : level; reason : reason; transient : bool }

type t = {
  level : level;
  stopped : bool;
  reason : reason option;
  events : event list;
}

let level_to_string = function
  | Incremental -> "incremental"
  | Single_lac -> "single-lac"

let reason_to_string = function
  | Audit_divergence -> "audit_divergence"
  | Watchdog_run -> "watchdog_run"
  | Watchdog_round -> "watchdog_round"
  | Certification_rollback -> "certification_rollback"
  | Resource_pressure -> "resource_pressure"

let of_incidents incidents =
  let step t (i : Incident.t) =
    let add reason ~level ~transient =
      {
        t with
        level;
        events = { round = i.Incident.round; level; reason; transient } :: t.events;
      }
    in
    let noted reason =
      List.exists (fun e -> e.transient && e.reason = reason) t.events
    in
    (* Transient notes describe a mode, not each occurrence: once per
       reason. *)
    let note reason =
      if noted reason then t else add reason ~level:t.level ~transient:true
    in
    let degrade reason t =
      if t.reason = None then { t with reason = Some reason } else t
    in
    match i.Incident.kind with
    | Incident.Audit_divergence _ ->
      degrade Audit_divergence
        (if t.level = Single_lac then { t with stopped = true }
         else if noted Audit_divergence then
           add Audit_divergence ~level:Single_lac ~transient:false
         else note Audit_divergence)
    | Incident.Watchdog_expired { scope = "run" } ->
      degrade Watchdog_run (note Watchdog_run)
    | Incident.Watchdog_expired _ -> note Watchdog_round
    | Incident.Resource_exhausted _ ->
      degrade Resource_pressure (note Resource_pressure)
    | Incident.Certification_violation _ -> note Certification_rollback
    | Incident.Checkpoint_corrupt _ | Incident.Deadline_exceeded _
    | Incident.Job_quarantined _ ->
      t
  in
  let t =
    List.fold_left step
      { level = Incremental; stopped = false; reason = None; events = [] }
      incidents
  in
  { t with events = List.rev t.events }

let summary t =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (level_to_string Incremental);
  List.iter
    (fun e ->
      if e.transient then
        Buffer.add_string buf
          (Printf.sprintf " [%s@%d]" (reason_to_string e.reason) e.round)
      else
        Buffer.add_string buf
          (Printf.sprintf " -> %s@%d (%s)" (level_to_string e.level) e.round
             (reason_to_string e.reason)))
    t.events;
  Buffer.contents buf
