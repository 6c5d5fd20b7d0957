open Accals_network
module Prng = Accals_bitvec.Prng
module Stats = Accals_runtime.Stats
module Pool = Accals_runtime.Pool
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

(* One round of annealing over the conflict-free subset of the shortlist,
   then commit the archived point with the largest area reduction within
   the bound. [rng] and [archive] carry across rounds. *)
let anneal amosa rng archive ~area0 r scored =
  let time name f = Stats.time_phase (Pool.stats r.Engine.pool) name f in
  let e_b = r.Engine.e_b in
  let probes = ref 0 in
  let l_sol, _ = Conflict_graph.find_and_solve scored in
  let pool = Array.of_list l_sol in
  let n = Array.length pool in
  (* Evaluate a subset: exact error and area after application and sweep,
     without committing anything. *)
  let evaluate subset =
    incr probes;
    Round_eval.probe r.Engine.eval (List.map (fun i -> pool.(i)) subset)
  in
  let mutate subset =
    let add () =
      let v = Prng.int rng n in
      if List.mem v subset || List.length subset >= amosa.subset_limit then
        subset
      else v :: subset
    in
    let remove () =
      match subset with
      | [] -> subset
      | _ ->
        let k = Prng.int rng (List.length subset) in
        List.filteri (fun i _ -> i <> k) subset
    in
    if Prng.int rng 3 = 1 then remove () else add ()
  in
  let search () =
    let state = ref [ Prng.int rng n ] in
    let _, e0, a0 = evaluate !state in
    let state_point = ref (e0, a0 /. area0) in
    let round_best = ref None in
    let note_candidate subset point =
      archive := archive_insert !archive point;
      let e, a = point in
      if e <= e_b then
        match !round_best with
        | Some (_, best_a) when a >= best_a -> ()
        | _ -> round_best := Some (subset, a)
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
            (* Accept a dominated move with temperature-scaled odds on the
               domination amount (AMOSA's acceptance). *)
            let de = fst point -. fst !state_point in
            let da = snd point -. snd !state_point in
            let amount = (max 0.0 de /. max e_b 1e-9) +. max 0.0 da in
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
    !round_best
  in
  let choice =
    if n = 0 then None
    else
      match time "select" search with
      | None | Some ([], _) -> None
      | Some (subset, _) ->
        time "evaluate" (fun () ->
            let applied, e_new, _ = evaluate subset in
            if applied = [] then None
            else begin
              Round_eval.commit_set r.Engine.eval applied;
              Some
                {
                  Engine.mode = Trace.Multi;
                  top = List.length scored;
                  sol = n;
                  indp = List.length applied;
                  rand = 0;
                  chose_indp = None;
                  applied;
                  skipped = 0;
                  e_new;
                  reverted = false;
                }
            end)
  in
  (choice, !probes)

let run ?config ?(amosa = default_config) ?patterns ?pool net ~metric
    ~error_bound =
  let rng = Prng.create amosa.seed in
  let archive = ref [ (0.0, 1.0) ] in
  let area0 = Cost.area net in
  let step =
    {
      Engine.name = "amosa";
      shortlist = (fun _ -> amosa.pool_size);
      select =
        (fun r scored ->
          if r.Engine.single then Engine.single_lac r scored
          else anneal amosa rng archive ~area0 r scored);
    }
  in
  let report =
    Engine.run ~step ?config ?patterns ?pool net ~metric ~error_bound
  in
  { report; archive = List.sort compare !archive }
