open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Prng = Accals_bitvec.Prng
module Config = Accals.Config
module Engine = Accals.Engine
module Trace = Accals.Trace
module Conflict_graph = Accals.Conflict_graph
module Round_eval = Accals.Round_eval

type config = {
  iterations_per_round : int;
  subset_limit : int;
  pool_size : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
}

let default_config =
  {
    iterations_per_round = 3000;
    subset_limit = 12;
    pool_size = 48;
    initial_temperature = 0.08;
    cooling = 0.995;
    seed = 5;
  }

type result = { report : Engine.report; archive : (float * float) list }

(* (error, area) Pareto bookkeeping: smaller is better on both axes. *)
let dominates (e1, a1) (e2, a2) =
  e1 <= e2 && a1 <= a2 && (e1 < e2 || a1 < a2)

let archive_insert archive point =
  if List.exists (fun p -> dominates p point || p = point) archive then archive
  else point :: List.filter (fun p -> not (dominates point p)) archive

let run ?config ?(amosa = default_config) ?patterns ?pool net ~metric
    ~error_bound =
  if error_bound <= 0.0 then invalid_arg "Amosa.run: error bound must be positive";
  let config = match config with Some c -> c | None -> Config.for_network net in
  let dpool, owned_pool =
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
  Fun.protect
    ~finally:(fun () -> if owned_pool then Accals_runtime.Pool.shutdown dpool)
  @@ fun () ->
  let golden = Evaluate.output_signatures net patterns in
  let area0 = Cost.area net in
  let delay0 = Cost.delay net in
  let rng = Prng.create amosa.seed in
  let current = ref (Network.copy net) in
  let error = ref 0.0 in
  let best = ref (Network.copy net) in
  let best_error = ref 0.0 in
  let rounds = ref [] in
  let evaluations = ref 0 in
  let global_archive = ref [ (0.0, 1.0) ] in
  let round_index = ref 0 in
  let finished = ref false in
  let ev =
    Round_eval.create ~incremental:config.Config.incremental ~current
      ~patterns ~golden ~metric
  in
  while (not !finished) && !round_index < config.Config.max_rounds do
    incr round_index;
    let ctx, est = Round_eval.begin_round ev in
    let candidates =
      Candidate_gen.generate ~pool:dpool ctx config.Config.candidate
    in
    if candidates = [] then finished := true
    else begin
      let scored =
        Estimator.score ~pool:dpool est ~shortlist:amosa.pool_size candidates
      in
      evaluations := !evaluations + Round_eval.take_evaluations ev;
      let l_sol, _ = Conflict_graph.find_and_solve scored in
      let pool = Array.of_list l_sol in
      let n = Array.length pool in
      if n = 0 then finished := true
      else begin
        (* Evaluate a subset: exact error and area after application and
           sweep, without committing anything. *)
        let evaluate subset =
          let lacs = List.map (fun i -> pool.(i)) subset in
          let applied, e, area = Round_eval.probe ev lacs in
          incr evaluations;
          (applied, e, area)
        in
        let mutate subset =
          let add () =
            let v = Prng.int rng n in
            if List.mem v subset || List.length subset >= amosa.subset_limit
            then subset
            else v :: subset
          in
          let remove () =
            match subset with
            | [] -> subset
            | _ ->
              let k = Prng.int rng (List.length subset) in
              List.filteri (fun i _ -> i <> k) subset
          in
          match Prng.int rng 3 with
          | 0 -> add ()
          | 1 -> remove ()
          | _ -> add () |> fun s -> (match s with [] -> s | _ -> s)
        in
        let state = ref [ Prng.int rng n ] in
        let _, e0, a0 = evaluate !state in
        let state_point = ref (e0, a0 /. area0) in
        let round_best = ref None in
        let note_candidate subset point =
          global_archive := archive_insert !global_archive point;
          let e, _ = point in
          if e <= error_bound then
            match !round_best with
            | Some (_, _, best_a) when snd point >= best_a -> ()
            | _ -> round_best := Some (subset, e, snd point)
        in
        note_candidate !state !state_point;
        let temperature = ref amosa.initial_temperature in
        for _ = 1 to amosa.iterations_per_round do
          let proposal = mutate !state in
          if proposal <> !state then begin
            let _, e, a = evaluate proposal in
            let point = (e, a /. area0) in
            note_candidate proposal point;
            let accept =
              if dominates point !state_point then true
              else if dominates !state_point point then begin
                (* Accept a dominated move with temperature-scaled odds on
                   the domination amount (AMOSA's acceptance). *)
                let de = fst point -. fst !state_point in
                let da = snd point -. snd !state_point in
                let amount = (max 0.0 de /. max error_bound 1e-9) +. max 0.0 da in
                Prng.float rng < exp (-.amount /. max !temperature 1e-9)
              end
              else Prng.bool rng
            in
            if accept then begin
              state := proposal;
              state_point := point
            end
          end;
          temperature := !temperature *. amosa.cooling
        done;
        match !round_best with
        | None -> finished := true
        | Some (subset, _, _) when subset = [] -> finished := true
        | Some (subset, _, _) ->
          let applied, e_new, _ = evaluate subset in
          if applied = [] then finished := true else begin
          let e_before = !error in
          Round_eval.commit_set ev applied;
          error := e_new;
          let resim_nodes, resim_converged, resim_recycled =
            Round_eval.take_counters ev
          in
          rounds :=
            {
              Trace.index = !round_index;
              mode = Trace.Multi;
              candidates = List.length candidates;
              top_count = List.length scored;
              sol_count = n;
              indp_count = List.length applied;
              rand_count = 0;
              chose_indp = None;
              applied = List.length applied;
              skipped_cycles = 0;
              error_before = e_before;
              error_after = e_new;
              estimated_error =
                List.fold_left
                  (fun acc l -> acc +. l.Lac.delta_error)
                  e_before applied;
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
      end
    end
  done;
  let approximate = Cleanup.compact !best in
  let stats_snap = Accals_runtime.Stats.snapshot (Accals_runtime.Pool.stats dpool) in
  let report =
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
        Accals_telemetry.Metrics.merge
          stats_snap.Accals_runtime.Stats.metrics
          (Accals_telemetry.Metrics.snapshot
             (Accals_telemetry.Telemetry.metrics ()));
    }
  in
  { report; archive = List.sort compare !global_archive }
