type level = Incremental | Single_lac

(* Both variants are marshaled inside engine snapshots. New constructors go
   at the END, which keeps existing tags decodable; removing one renumbers
   the tags after it and needs an [Engine.snapshot_version] bump. *)
type reason =
  | Audit_divergence
  | Watchdog_run
  | Watchdog_round
  | Certification_rollback
  | Resource_pressure

type event = { round : int; level : level; reason : reason; transient : bool }

type t = { mutable level : level; mutable events : event list (* newest first *) }

let create () = { level = Incremental; events = [] }
let copy t = { level = t.level; events = t.events }
let level t = t.level
let events t = List.rev t.events

let level_to_string = function
  | Incremental -> "incremental"
  | Single_lac -> "single-lac"

let reason_to_string = function
  | Audit_divergence -> "audit_divergence"
  | Watchdog_run -> "watchdog_run"
  | Watchdog_round -> "watchdog_round"
  | Certification_rollback -> "certification_rollback"
  | Resource_pressure -> "resource_pressure"

let descend t ~round ~reason =
  if t.level = Incremental then begin
    t.level <- Single_lac;
    t.events <-
      { round; level = Single_lac; reason; transient = false } :: t.events
  end

let note t ~round ~reason =
  (* Transient events (a first audit divergence, round watchdog demotions,
     run-deadline stops) are recorded once per reason — they describe a
     mode, not each occurrence, and keep the checkpointed event list
     bounded. *)
  if List.exists (fun e -> e.transient && e.reason = reason) t.events then
    false
  else begin
    t.events <- { round; level = t.level; reason; transient = true } :: t.events;
    true
  end

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
    (events t);
  Buffer.contents buf
