open Accals_network
module Metric = Accals_metrics.Metric
module Stats = Accals_runtime.Stats
module Degradation = Accals_audit.Degradation
module Incident = Accals_audit.Incident
module Certify = Accals_audit.Certify
module Json = Accals_telemetry.Json

let mode_str = function Trace.Multi -> "multi" | Trace.Single -> "single"

let round_json (r : Trace.round) =
  Json.Obj
    [
      ("round", Json.Int r.Trace.index);
      ("mode", Json.String (mode_str r.Trace.mode));
      ("candidates", Json.Int r.Trace.candidates);
      ("top", Json.Int r.Trace.top_count);
      ("sol", Json.Int r.Trace.sol_count);
      ("indp", Json.Int r.Trace.indp_count);
      ("rand", Json.Int r.Trace.rand_count);
      ( "chose_indp",
        match r.Trace.chose_indp with
        | Some true -> Json.String "indp"
        | Some false -> Json.String "rand"
        | None -> Json.Null );
      ("applied", Json.Int r.Trace.applied);
      ("skipped", Json.Int r.Trace.skipped_cycles);
      ("error_before", Json.Float r.Trace.error_before);
      ("error_after", Json.Float r.Trace.error_after);
      ("estimated_error", Json.Float r.Trace.estimated_error);
      ("reverted", Json.Bool r.Trace.reverted);
      ("area", Json.Float r.Trace.area);
      ("resim_nodes", Json.Int r.Trace.resim_nodes);
      ("resim_converged", Json.Int r.Trace.resim_converged);
      ("resim_recycled", Json.Int r.Trace.resim_recycled);
    ]

let ladder_event_json (e : Degradation.event) =
  Json.Obj
    [
      ("round", Json.Int e.Degradation.round);
      ("level", Json.String (Degradation.level_to_string e.Degradation.level));
      ("reason", Json.String (Degradation.reason_to_string e.Degradation.reason));
      ("transient", Json.Bool e.Degradation.transient);
    ]

let incident_json (i : Incident.t) =
  (* Reuse the incident log's own (line-oriented) encoder so incident
     objects look identical in both artifacts. *)
  Json.parse_exn (Incident.to_json i)

let certification_json (o : Certify.outcome) =
  Json.Obj
    [
      ("certified", Json.Bool o.Certify.certified);
      ("measured", Json.Float o.Certify.measured);
      ("bound", Json.Float o.Certify.bound);
      ("method", Json.String (Certify.method_to_string o.Certify.method_));
      ("rollback_steps", Json.Int o.Certify.rollback_steps);
    ]

let stats_json (s : Stats.snapshot) =
  Json.Obj
    [
      ("jobs", Json.Int s.Stats.jobs);
      ("tasks", Json.Int s.Stats.tasks);
      ("batches", Json.Int s.Stats.batches);
      ("waits", Json.Int s.Stats.waits);
      ( "phases",
        Json.Obj
          (List.map (fun (name, t) -> (name, Json.Float t)) s.Stats.phases) );
    ]

let to_json ?(rounds = false) (r : Engine.report) =
  let d = Degradation.of_incidents r.Engine.incidents in
  let base =
    [
      (* Header first: which binary produced this report.  Lets a sweep
         or CI artifact be tied back to an exact build after the fact. *)
      ("build", Accals_telemetry.Build_info.to_json ());
      ("circuit", Json.String (Network.name r.Engine.original));
      ("metric", Json.String (Metric.kind_to_string r.Engine.metric));
      ("error_bound", Json.Float r.Engine.error_bound);
      ("error", Json.Float r.Engine.error);
      ("area_ratio", Json.Float r.Engine.area_ratio);
      ("delay_ratio", Json.Float r.Engine.delay_ratio);
      ("adp_ratio", Json.Float r.Engine.adp_ratio);
      ("rounds", Json.Int (List.length r.Engine.rounds));
      ("runtime_seconds", Json.Float r.Engine.runtime_seconds);
      ("evaluations", Json.Int r.Engine.exact_evaluations);
      ("degraded", Json.Bool r.Engine.degraded);
      ( "degraded_reason",
        match d.Degradation.reason with
        | Some reason -> Json.String (Degradation.reason_to_string reason)
        | None -> Json.Null );
      ("final_level", Json.String (Degradation.level_to_string d.Degradation.level));
      ("ladder", Json.String (Degradation.summary d));
      ( "ladder_events",
        Json.List (List.map ladder_event_json d.Degradation.events) );
      ("audits", Json.Int r.Engine.audits);
      ("incidents", Json.List (List.map incident_json r.Engine.incidents));
      ( "certification",
        match r.Engine.certification with
        | Some o -> certification_json o
        | None -> Json.Null );
      ("lacs_applied", Json.Int
         (List.fold_left (fun acc x -> acc + x.Trace.applied) 0 r.Engine.rounds));
      ("stats", stats_json r.Engine.stats);
    ]
  in
  let base =
    if rounds then
      base @ [ ("round_trace", Json.List (List.map round_json r.Engine.rounds)) ]
    else base
  in
  Json.Obj base

let to_string ?rounds r = Json.to_string ~pretty:true (to_json ?rounds r) ^ "\n"
