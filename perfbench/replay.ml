(* The traced replay: Algorithm 1's round loop driven from the benchmark
   through the library's public calls, with a benchmark-side span around
   each call. It follows [Engine.run]'s loop with the run's optional
   machinery (watchdogs, audits, memory governor, certification, all off
   by default) left out, so on a default configuration it must end at the
   same circuit and the same per-round (applied, error_after) as
   [Engine.run]; the caller checks that. *)

open Accals_network
open Accals_lac
module Config = Accals.Config
module Round_eval = Accals.Round_eval
module Top_set = Accals.Top_set
module Conflict_graph = Accals.Conflict_graph
module Independent_select = Accals.Independent_select
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Metric = Accals_metrics.Metric
module Prng = Accals_bitvec.Prng

type counts = {
  mutable candidates : int;
  mutable exact_evaluations : int;
  mutable cone_hits : int;
  mutable cone_misses : int;
  mutable eval_calls : int;
  mutable resim_nodes : int;
  mutable resim_early_stops : int;
  mutable top : int;
  mutable indp : int;
  mutable multi_rounds : int;
  mutable indp_wins : int;
  mutable reverts : int;
}

let zero_counts () =
  {
    candidates = 0;
    exact_evaluations = 0;
    cone_hits = 0;
    cone_misses = 0;
    eval_calls = 0;
    resim_nodes = 0;
    resim_early_stops = 0;
    top = 0;
    indp = 0;
    multi_rounds = 0;
    indp_wins = 0;
    reverts = 0;
  }

type outcome = {
  approximate : Network.t;
  error : float;
  rounds : (int * float) list;  (** (applied, error_after), chronological *)
}

let estimate_for e lacs =
  List.fold_left (fun acc lac -> acc +. lac.Lac.delta_error) e lacs

let run sp counts ~pool (config : Config.t) net ~metric ~error_bound:e_b =
  let span name f = Span.record sp name f in
  let patterns =
    Sim.for_network ~seed:config.seed ~count:config.samples
      ~exhaustive_limit:config.exhaustive_limit net
  in
  let golden =
    span "network.sim" (fun () -> Evaluate.output_signatures net patterns)
  in
  let current = ref (Network.copy net) in
  let error = ref 0.0 in
  let best = ref (Network.copy net) in
  let best_error = ref 0.0 in
  let rounds = ref [] in
  let rng = Prng.create (config.seed + 77) in
  let ev =
    Round_eval.create ~incremental:config.incremental ~current ~patterns
      ~golden ~metric
  in
  let eval name f =
    counts.eval_calls <- counts.eval_calls + 1;
    span name f
  in
  let record ~applied ~e_after =
    rounds := (applied, e_after) :: !rounds;
    let nodes, converged, _ = Round_eval.take_counters ev in
    counts.resim_nodes <- counts.resim_nodes + nodes;
    counts.resim_early_stops <- counts.resim_early_stops + converged;
    let aux = Round_eval.take_aux ev in
    counts.cone_hits <- counts.cone_hits + aux.Round_eval.cache_hits;
    counts.cone_misses <- counts.cone_misses + aux.Round_eval.cache_misses
  in
  let finished = ref false in
  let round = ref 0 in
  while (not !finished) && !round < config.max_rounds do
    incr round;
    span "round" @@ fun () ->
    let ctx, est = span "sigdb.begin_round" (fun () -> Round_eval.begin_round ev) in
    let candidates =
      span "lac.generate" (fun () ->
          Candidate_gen.generate ~pool ctx config.candidate)
    in
    counts.candidates <- counts.candidates + List.length candidates;
    if candidates = [] then finished := true
    else begin
      let single_mode = config.use_improvement_1 && !error > config.l_e *. e_b in
      let mode =
        if config.exact_estimation then Estimator.Exact else Estimator.Approximate
      in
      let scored =
        span "esterr.score" (fun () ->
            Estimator.score ~mode ~pool est
              ~shortlist:
                (if single_mode then min 64 config.shortlist else config.shortlist)
              candidates)
      in
      counts.exact_evaluations <-
        counts.exact_evaluations + Round_eval.take_evaluations ev;
      let single () =
        match eval "sigdb.eval" (fun () -> Round_eval.eval_single ev scored) with
        | None -> None
        | Some (lac, e_new) ->
          span "sigdb.commit" (fun () -> Round_eval.commit_single ev lac);
          error := e_new;
          Some e_new
      in
      match scored with
      | [] -> finished := true
      | _ when single_mode -> (
        match single () with
        | None -> finished := true
        | Some e_new ->
          record ~applied:1 ~e_after:e_new;
          if e_new <= e_b then begin
            best := Network.copy !current;
            best_error := e_new
          end
          else finished := true)
      | _ ->
        let l_indp, l_rand =
          span "select" (fun () ->
              let l_top =
                span "select.top_set" (fun () ->
                    Top_set.obtain ~r_ref:config.r_ref ~e:!error ~e_b scored)
              in
              let l_sol, _ =
                span "select.conflicts" (fun () ->
                    Conflict_graph.find_and_solve l_top)
              in
              let l_indp =
                span "mis.select_indp" (fun () ->
                    Independent_select.select ~pool config ctx ~l_sol ~e:!error
                      ~e_b)
              in
              let l_rand =
                if config.use_random_comparison then
                  span "select.random" (fun () ->
                      Independent_select.select_random config rng ~l_sol
                        ~e:!error ~e_b)
                else []
              in
              counts.top <- counts.top + List.length l_top;
              counts.indp <- counts.indp + List.length l_indp;
              (l_indp, l_rand))
        in
        let applied1, _, e1 =
          eval "sigdb.eval" (fun () -> Round_eval.eval_set ev l_indp)
        in
        let applied2, _, e2 =
          if l_rand = [] then ([], [], infinity)
          else eval "sigdb.eval" (fun () -> Round_eval.eval_set ev l_rand)
        in
        if applied1 = [] && applied2 = [] then finished := true
        else begin
          let choose_indp =
            applied2 = []
            || applied1 <> []
               && (e1 < e2
                  || (e1 = e2 && List.length applied1 >= List.length applied2))
          in
          counts.multi_rounds <- counts.multi_rounds + 1;
          if choose_indp then counts.indp_wins <- counts.indp_wins + 1;
          let e_new, applied = if choose_indp then (e1, applied1) else (e2, applied2) in
          let e_est = estimate_for !error applied in
          let beta = if e_new > 0.0 then (e_new -. e_est) /. e_new else 0.0 in
          if config.use_improvement_2 && e_new > 0.0 && beta > config.l_d then begin
            counts.reverts <- counts.reverts + 1;
            match single () with
            | None -> finished := true
            | Some e_s ->
              record ~applied:1 ~e_after:e_s;
              if e_s <= e_b then begin
                best := Network.copy !current;
                best_error := e_s
              end
              else finished := true
          end
          else begin
            span "sigdb.commit" (fun () -> Round_eval.commit_set ev applied);
            error := e_new;
            record ~applied:(List.length applied) ~e_after:e_new;
            if e_new <= e_b then begin
              best := Network.copy !current;
              best_error := e_new
            end
            else finished := true
          end
        end
    end
  done;
  { approximate = Cleanup.compact !best; error = !best_error; rounds = List.rev !rounds }
