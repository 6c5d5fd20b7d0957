open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Config = Accals.Config
module Engine = Accals.Engine
module Trace = Accals.Trace
module Round_eval = Accals.Round_eval
module Telemetry = Accals_telemetry.Telemetry
module Metrics = Accals_telemetry.Metrics
module Tjson = Accals_telemetry.Json

let run ?config ?patterns ?shortlist ?pool net ~metric ~error_bound =
  if error_bound <= 0.0 then invalid_arg "Seals.run: error bound must be positive";
  let config = match config with Some c -> c | None -> Config.for_network net in
  let shortlist =
    match shortlist with Some s -> s | None -> config.Config.shortlist
  in
  let pool, owned_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Accals_runtime.Pool.create ~jobs:config.Config.jobs, true)
  in
  let patterns =
    match patterns with
    | Some p -> p
    | None ->
      Sim.for_network ~seed:config.Config.seed ~count:config.Config.samples
        ~exhaustive_limit:config.Config.exhaustive_limit net
  in
  let started = Unix.gettimeofday () in
  Telemetry.with_span ~cat:"baseline"
    ~args:[ ("circuit", Tjson.String (Network.name net)) ]
    "seals.run"
  @@ fun () ->
  Fun.protect
    ~finally:(fun () -> if owned_pool then Accals_runtime.Pool.shutdown pool)
  @@ fun () ->
  let stats = Accals_runtime.Pool.stats pool in
  let phase name f = Accals_runtime.Stats.time_phase stats name f in
  let golden = phase "simulate" (fun () -> Evaluate.output_signatures net patterns) in
  let area0 = Cost.area net in
  let delay0 = Cost.delay net in
  let current = ref (Network.copy net) in
  let error = ref 0.0 in
  let best = ref (Network.copy net) in
  let best_error = ref 0.0 in
  let rounds = ref [] in
  let evaluations = ref 0 in
  let round_index = ref 0 in
  let finished = ref false in
  let ev =
    Round_eval.create ~incremental:config.Config.incremental ~current
      ~patterns ~golden ~metric
  in
  while (not !finished) && !round_index < config.Config.max_rounds do
    incr round_index;
    Telemetry.with_span ~cat:"baseline"
      ~args:[ ("round", Tjson.Int !round_index) ]
      "round"
    @@ fun () ->
    let ctx, est = phase "simulate" (fun () -> Round_eval.begin_round ev) in
    let candidates =
      phase "candidates" (fun () ->
          Candidate_gen.generate ~pool ctx config.Config.candidate)
    in
    if candidates = [] then finished := true
    else begin
      let scored =
        phase "estimate" (fun () -> Estimator.score ~pool est ~shortlist candidates)
      in
      evaluations := !evaluations + Round_eval.take_evaluations ev;
      match phase "evaluate" (fun () -> Round_eval.eval_single ev scored) with
      | None -> finished := true
      | Some (lac, e_new) ->
        phase "evaluate" (fun () -> Round_eval.commit_single ev lac);
        let e_before = !error in
        error := e_new;
        let resim_nodes, resim_converged, resim_recycled =
          Round_eval.take_counters ev
        in
        rounds :=
          {
            Trace.index = !round_index;
            mode = Trace.Single;
            candidates = List.length candidates;
            top_count = 1;
            sol_count = 1;
            indp_count = 0;
            rand_count = 0;
            chose_indp = None;
            applied = 1;
            skipped_cycles = 0;
            error_before = e_before;
            error_after = e_new;
            estimated_error = e_before +. lac.Lac.delta_error;
            reverted = false;
            area = Cost.area !current;
            resim_nodes;
            resim_converged;
            resim_recycled;
          }
          :: !rounds;
        if e_new <= error_bound then begin
          best := Network.copy !current;
          best_error := e_new
        end
        else finished := true
    end
  done;
  let approximate = Cleanup.compact !best in
  let stats_snap = Accals_runtime.Stats.snapshot stats in
  {
    Engine.original = net;
    approximate;
    error = !best_error;
    metric;
    error_bound;
    rounds = List.rev !rounds;
    runtime_seconds = Unix.gettimeofday () -. started;
    exact_evaluations = !evaluations;
    area_ratio = Cost.area approximate /. area0;
    delay_ratio = Cost.delay approximate /. delay0;
    adp_ratio = Cost.adp approximate /. (area0 *. delay0);
    degraded = false;
    degraded_reason = None;
    final_level = Accals_audit.Ladder.Incremental;
    ladder_events = [];
    ladder_summary = "incremental";
    audits = 0;
    incidents = [];
    certification = None;
    stats = stats_snap;
    metrics =
      Metrics.merge stats_snap.Accals_runtime.Stats.metrics
        (Metrics.snapshot (Telemetry.metrics ()));
  }
