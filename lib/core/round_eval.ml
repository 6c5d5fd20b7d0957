open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Sigdb = Accals_sigdb.Sigdb
module Bitvec = Accals_bitvec.Bitvec

(* Round evaluation backend: one interface, two implementations, chosen
   once at construction.

   [Incremental] is what runs: one signature database attached to the
   working circuit, evaluations under an undo journal with cone-only
   overlay resimulation, commits resimulating the changed cones in place,
   and a persistent estimator and candidate-generator memo, both refreshed
   from the database's change delta. [reset] drops that state; the next
   [begin_round] rebuilds it from the working circuit, exactly as a
   resumed run does. [Rebuild] is the differential-test reference — every
   candidate-set evaluation copies the working circuit, applies the LACs
   to the copy and resimulates it from scratch, and every round rebuilds
   the analysis context and the estimator and generates every target's
   candidates afresh (no memo).

   Both paths are bit-identical observable-for-observable: same applied /
   skipped partitions (the acyclicity guard sees the same network states),
   same error floats (overlay cone evaluation produces the same output
   bitvectors as a from-scratch simulation), same committed circuits
   (re-applying the applied sublist reproduces the evaluated circuit,
   including fresh node ids). Only the resimulation counters differ — they
   report the work actually done, which is the point. *)

type rebuild_state = {
  mutable r_ctx : Round_ctx.t option;
  mutable r_est : Estimator.t option;
  mutable r_sim_cost : int;  (* live non-input nodes at round start *)
  mutable r_nodes : int;  (* accumulated full-simulation node count *)
}

type incr_state = {
  mutable i_db : Sigdb.t option;
  mutable i_ctx : Round_ctx.t option;
  mutable i_est : Estimator.t option;
  mutable i_memo : Candidate_gen.memo option;
  mutable i_nodes_mark : int;
  mutable i_conv_mark : int;
  mutable i_rec_mark : int;
}

type backend = Rebuild of rebuild_state | Incremental of incr_state

type t = {
  current : Network.t ref;
  patterns : Sim.patterns;
  golden : Bitvec.t array;
  metric : Metric.kind;
  prepared : Metric.prepared;  (* [golden] prepared once for the whole run *)
  backend : backend;
  mutable evals_mark : int;
  mutable hits_mark : int;  (* estimator cone-cache hit mark *)
  mutable misses_mark : int;
  mutable hits_pending : int;
      (* cache deltas banked when an estimator retires (rebuild-path commit,
         [reset]), so [take_aux] can report them after it is gone *)
  mutable misses_pending : int;
  mutable undo_mark : int;  (* sigdb journal undo mark *)
  mutable jent_mark : int;  (* sigdb journal entries-undone mark *)
}

type aux = {
  cache_hits : int;
  cache_misses : int;
  journal_undos : int;
  journal_entries : int;
}

let create ~incremental ~current ~patterns ~golden ~metric =
  let backend =
    if incremental then
      Incremental
        {
          i_db = None;
          i_ctx = None;
          i_est = None;
          i_memo = None;
          i_nodes_mark = 0;
          i_conv_mark = 0;
          i_rec_mark = 0;
        }
    else Rebuild { r_ctx = None; r_est = None; r_sim_cost = 0; r_nodes = 0 }
  in
  {
    current;
    patterns;
    golden;
    metric;
    prepared = Metric.prepare metric ~golden;
    backend;
    evals_mark = 0;
    hits_mark = 0;
    misses_mark = 0;
    hits_pending = 0;
    misses_pending = 0;
    undo_mark = 0;
    jent_mark = 0;
  }

let live_noninput ctx =
  Array.fold_left
    (fun acc id ->
      if Network.is_input ctx.Round_ctx.net id then acc else acc + 1)
    0 ctx.Round_ctx.order

let db_exn s =
  match s.i_db with
  | Some db -> db
  | None -> invalid_arg "Round_eval: no round started"

let sort_by_delta lacs =
  List.sort (fun a b -> compare a.Lac.delta_error b.Lac.delta_error) lacs

(* The incremental views are replaced wholesale at every refresh, so a view
   sized differently from the network it describes can only mean the
   database missed a change event — the watermark anomaly that forces an
   immediate audit. *)
let watermark_ok t =
  match t.backend with
  | Incremental { i_db = Some db; _ } ->
    Array.length (Sigdb.live_view db) = Network.num_nodes !(t.current)
  | Rebuild _ | Incremental _ -> true

let audit t ~recorded_error =
  let observed =
    match t.backend with
    | Rebuild _ -> None
    | Incremental s ->
      let db = db_exn s in
      Some (Sigdb.live_view db, Sigdb.sigs_view db)
  in
  Accals_audit.Shadow.compare ~net:!(t.current) ~patterns:t.patterns
    ~golden:t.golden ~metric:t.metric ~recorded_error ~observed

let corrupt_for_selftest t =
  match t.backend with
  | Rebuild _ -> None
  | Incremental s -> Sigdb.corrupt_signature (db_exn s)

(* ------------------------------------------------------------------ *)

let begin_round t =
  match t.backend with
  | Rebuild s ->
    let ctx = Round_ctx.create !(t.current) t.patterns in
    let est = Estimator.create ctx ~golden:t.golden ~metric:t.metric in
    s.r_ctx <- Some ctx;
    s.r_est <- Some est;
    s.r_sim_cost <- live_noninput ctx;
    s.r_nodes <- s.r_nodes + s.r_sim_cost;
    (* The estimator is fresh each rebuild round, so its raw counters
       restart from zero — the marks must follow. *)
    t.evals_mark <- 0;
    t.hits_mark <- 0;
    t.misses_mark <- 0;
    (ctx, est)
  | Incremental s -> (
    match (s.i_ctx, s.i_est) with
    | Some ctx, Some est -> (ctx, est)
    | _ ->
      let db = Sigdb.create !(t.current) t.patterns in
      let ctx = Round_ctx.of_sigdb db in
      let est = Estimator.create ctx ~golden:t.golden ~metric:t.metric in
      (* The initial full simulation inside [Sigdb.create] is real work;
         surface it through the same counter as the cone evaluations. *)
      (Sigdb.counters db).Sigdb.resim_nodes <-
        (Sigdb.counters db).Sigdb.resim_nodes + live_noninput ctx;
      s.i_db <- Some db;
      s.i_ctx <- Some ctx;
      s.i_est <- Some est;
      s.i_memo <- Some (Candidate_gen.memo ());
      (* Fresh database, estimator and memo (first round, or after
         [reset]): every raw counter restarts from zero, so every mark must
         follow. *)
      s.i_nodes_mark <- 0;
      s.i_conv_mark <- 0;
      s.i_rec_mark <- 0;
      t.evals_mark <- 0;
      t.hits_mark <- 0;
      t.misses_mark <- 0;
      t.undo_mark <- 0;
      t.jent_mark <- 0;
      (ctx, est))

let estimator t =
  match t.backend with
  | Rebuild { r_est = Some est; _ } | Incremental { i_est = Some est; _ } ->
    est
  | _ -> invalid_arg "Round_eval: no round started"

let take_evaluations t =
  let now = Estimator.evaluations (estimator t) in
  let delta = now - t.evals_mark in
  t.evals_mark <- now;
  delta

let take_counters t =
  match t.backend with
  | Rebuild s ->
    let nodes = s.r_nodes in
    s.r_nodes <- 0;
    (nodes, 0, 0)
  | Incremental s ->
    let c = Sigdb.counters (db_exn s) in
    let nodes = c.Sigdb.resim_nodes - s.i_nodes_mark in
    let conv = c.Sigdb.resim_converged - s.i_conv_mark in
    let recycled = c.Sigdb.buffers_recycled - s.i_rec_mark in
    s.i_nodes_mark <- c.Sigdb.resim_nodes;
    s.i_conv_mark <- c.Sigdb.resim_converged;
    s.i_rec_mark <- c.Sigdb.buffers_recycled;
    (nodes, conv, recycled)

(* Bank the live estimator's cache deltas into the pending accumulators.
   Called when the estimator is about to retire (rebuild-path commit,
   [reset]) and by [take_aux] itself. *)
let bank_cache_stats t =
  match t.backend with
  | Rebuild { r_est = Some est; _ } | Incremental { i_est = Some est; _ } ->
    let hits, misses = Estimator.cache_stats est in
    t.hits_pending <- t.hits_pending + (hits - t.hits_mark);
    t.misses_pending <- t.misses_pending + (misses - t.misses_mark);
    t.hits_mark <- hits;
    t.misses_mark <- misses
  | _ -> ()

(* Drop the derived state; the next [begin_round] rebuilds it from the
   working circuit (the rebuild path does that every round anyway). The
   database's tracker comes off the network first, so the abandoned
   database never sees another change event. *)
let reset t =
  match t.backend with
  | Rebuild _ -> ()
  | Incremental s ->
    bank_cache_stats t;
    Option.iter Sigdb.detach s.i_db;
    s.i_db <- None;
    s.i_ctx <- None;
    s.i_est <- None;
    s.i_memo <- None

let generator t =
  match t.backend with
  | Incremental { i_memo; _ } -> i_memo
  | Rebuild _ -> None

let take_aux t =
  bank_cache_stats t;
  let cache_hits = t.hits_pending in
  let cache_misses = t.misses_pending in
  t.hits_pending <- 0;
  t.misses_pending <- 0;
  match t.backend with
  | Rebuild _ ->
    { cache_hits; cache_misses; journal_undos = 0; journal_entries = 0 }
  | Incremental s ->
    let c = Sigdb.counters (db_exn s) in
    let journal_undos = c.Sigdb.journal_undos - t.undo_mark in
    let journal_entries = c.Sigdb.journal_entries_undone - t.jent_mark in
    t.undo_mark <- c.Sigdb.journal_undos;
    t.jent_mark <- c.Sigdb.journal_entries_undone;
    { cache_hits; cache_misses; journal_undos; journal_entries }

(* ------------------------------------------------------------------ *)
(* Memory-governor hooks.

   [aux_bytes] is the footprint of the backend's discardable derived state
   — the estimator's cone cache, the signature database's idle buffer pool
   and the candidate-generator memo. [relieve_memory] gives exactly that
   state back: the stores are rebuilt on demand from the per-round views,
   and a fresh memo regenerates every target, so dropping them costs time
   but cannot change candidates, scores, tie-breaks or committed
   circuits. Round boundary only (a parallel [Estimator.evaluate] reads
   the cone cache concurrently). *)

let aux_bytes t =
  match t.backend with
  | Rebuild { r_est = Some est; _ } -> Estimator.cone_cache_bytes est
  | Rebuild _ -> 0
  | Incremental s ->
    (match s.i_est with Some est -> Estimator.cone_cache_bytes est | None -> 0)
    + (match s.i_db with Some db -> Sigdb.pool_bytes db | None -> 0)
    + (match s.i_memo with Some m -> Candidate_gen.memo_bytes m | None -> 0)

let relieve_memory t =
  let cones =
    match t.backend with
    | Rebuild { r_est = Some est; _ } | Incremental { i_est = Some est; _ } ->
      Estimator.drop_cone_cache est
    | _ -> 0
  in
  let bufs =
    match t.backend with
    | Incremental { i_db = Some db; _ } -> Sigdb.trim_pool db
    | _ -> 0
  in
  let memo_bytes =
    match t.backend with
    | Incremental ({ i_memo = Some m; _ } as s) ->
      s.i_memo <- Some (Candidate_gen.memo ());
      Candidate_gen.memo_bytes m
    | _ -> 0
  in
  (cones, bufs, memo_bytes)

(* ------------------------------------------------------------------ *)
(* Speculative evaluation *)

let measure_outputs t approx = Metric.measure_prepared t.prepared ~approx

(* The rebuild backend's from-scratch measurement of a network copy. *)
let measure_copy t copy =
  measure_outputs t (Evaluate.output_signatures copy t.patterns)

(* Evaluate a LAC set (applied in ascending estimated-error order, as the
   engine always has) against the working circuit without committing it:
   returns the applied and skipped partitions and the exact-on-samples
   error of the would-be circuit, before any cleanup. *)
let eval_set t lacs =
  let ordered = sort_by_delta lacs in
  match t.backend with
  | Rebuild s ->
    let copy = Network.copy !(t.current) in
    let applied, skipped = Lac.apply_many copy ordered in
    let e = measure_copy t copy in
    s.r_nodes <- s.r_nodes + s.r_sim_cost;
    (applied, skipped, e)
  | Incremental s ->
    let db = db_exn s in
    Sigdb.begin_journal db;
    let applied, skipped = Lac.apply_many !(t.current) ordered in
    let e = Sigdb.with_journal_outputs db (measure_outputs t) in
    Sigdb.undo_journal db;
    (applied, skipped, e)

(* Try the scored LACs in order until one applies without closing a cycle;
   return it with the exact-on-samples error of the would-be circuit. The
   working circuit is left unchanged. *)
let eval_single t scored =
  match t.backend with
  | Rebuild s ->
    let rec try_apply = function
      | [] -> None
      | lac :: rest -> (
        let copy = Network.copy !(t.current) in
        match Lac.apply copy lac with
        | () ->
          let e = measure_copy t copy in
          s.r_nodes <- s.r_nodes + s.r_sim_cost;
          Some (lac, e)
        | exception Network.Cycle _ -> try_apply rest)
    in
    try_apply scored
  | Incremental s ->
    let db = db_exn s in
    let rec try_apply = function
      | [] -> None
      | lac :: rest -> (
        (* [Lac.apply] leaves the network untouched when it raises [Cycle]
           (the guard precedes every mutation), so consecutive attempts can
           share one journal. *)
        match Lac.apply !(t.current) lac with
        | () ->
          let e = Sigdb.with_journal_outputs db (measure_outputs t) in
          Some (lac, e)
        | exception Network.Cycle _ -> try_apply rest)
    in
    Sigdb.begin_journal db;
    let result = try_apply scored in
    Sigdb.undo_journal db;
    result

(* Evaluate a LAC set the way the AMOSA baseline scores states: apply,
   sweep, then measure both error and area of the cleaned-up circuit —
   still without committing anything. *)
let probe t lacs =
  let ordered = sort_by_delta lacs in
  match t.backend with
  | Rebuild s ->
    let copy = Network.copy !(t.current) in
    let applied, _skipped = Lac.apply_many copy ordered in
    Cleanup.sweep copy;
    let e = measure_copy t copy in
    s.r_nodes <- s.r_nodes + s.r_sim_cost;
    (applied, e, Cost.area copy)
  | Incremental s ->
    let db = db_exn s in
    Sigdb.begin_journal db;
    let applied, _skipped = Lac.apply_many !(t.current) ordered in
    Cleanup.sweep !(t.current);
    let e = Sigdb.with_journal_outputs db (measure_outputs t) in
    let area = Cost.area !(t.current) in
    Sigdb.undo_journal db;
    (applied, e, area)

(* ------------------------------------------------------------------ *)
(* Commits *)

let refresh_incremental t s =
  let db = db_exn s in
  Sigdb.resimulate db;
  Cleanup.sweep !(t.current);
  let delta = Sigdb.refresh db in
  let ctx = Round_ctx.of_sigdb db in
  let est =
    match s.i_est with
    | Some est -> est
    | None -> invalid_arg "Round_eval: no round started"
  in
  Estimator.refresh est ctx ~sig_changed:delta.Sigdb.sig_changed
    ~struct_dirty:delta.Sigdb.struct_dirty;
  Option.iter (fun m -> Candidate_gen.memo_refresh m delta) s.i_memo;
  s.i_ctx <- Some ctx

(* Commit the applied sublist a prior [eval_set] returned. Re-applying it
   reproduces the evaluated circuit exactly: the skipped LACs never mutated
   anything, so each applied LAC meets the same intermediate network (and
   the same node-id watermark) as during evaluation. *)
let commit_set t applied =
  match t.backend with
  | Rebuild s ->
    bank_cache_stats t;
    let copy = Network.copy !(t.current) in
    let applied', _ = Lac.apply_many copy applied in
    assert (List.length applied' = List.length applied);
    Cleanup.sweep copy;
    t.current := copy;
    s.r_ctx <- None;
    s.r_est <- None
  | Incremental s ->
    let applied', _ = Lac.apply_many !(t.current) applied in
    assert (List.length applied' = List.length applied);
    refresh_incremental t s

let commit_single t lac =
  match t.backend with
  | Rebuild s ->
    bank_cache_stats t;
    let copy = Network.copy !(t.current) in
    Lac.apply copy lac;
    Cleanup.sweep copy;
    t.current := copy;
    s.r_ctx <- None;
    s.r_est <- None
  | Incremental s ->
    Lac.apply !(t.current) lac;
    refresh_incremental t s
