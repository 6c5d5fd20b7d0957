open Accals_network
open Accals_lac
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Prng = Accals_bitvec.Prng
module Pool = Accals_runtime.Pool
module Stats = Accals_runtime.Stats
module Watchdog = Accals_resilience.Watchdog
module Budget = Accals_resilience.Budget
module Degradation = Accals_audit.Degradation
module Incident = Accals_audit.Incident
module Shadow = Accals_audit.Shadow
module Certify = Accals_audit.Certify
module Telemetry = Accals_telemetry.Telemetry
module Metrics = Accals_telemetry.Metrics
module Tjson = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock

type report = {
  original : Network.t;
  approximate : Network.t;
  error : float;
  metric : Metric.kind;
  error_bound : float;
  rounds : Trace.round list;
  runtime_seconds : float;
  exact_evaluations : int;
  area_ratio : float;
  delay_ratio : float;
  adp_ratio : float;
  degraded : bool;
  audits : int;
  incidents : Incident.t list;
  certification : Certify.outcome option;
  stats : Stats.snapshot;
  metrics : Metrics.snapshot;
      (* pool registry (work counters, phase seconds, per-round engine
         metrics) merged with the ambient registry (checkpoint bytes) *)
}

(* Everything Algorithm 1 carries from one round to the next, and the
   round loop's only state: the loop mutates this record in place. A
   snapshot at a round boundary fully determines the rest of the run: the
   input patterns, golden signatures and cost baselines are all
   deterministic functions of [s_config] and [s_original]. Snapshots are
   what [lib/resilience]'s [Checkpoint] persists and what [resume]
   continues from. *)
type snapshot = {
  s_version : int;
  s_original : Network.t;
  s_config : Config.t;
  s_metric : Metric.kind;
  s_error_bound : float;
  s_current : Network.t ref;
      (* the working circuit; [Round_eval] commits through this ref *)
  s_rng : Prng.t;
  mutable s_best : Network.t;  (* replaced, never mutated in place *)
  mutable s_error : float;
  mutable s_best_error : float;
  mutable s_rounds : Trace.round list;  (* newest first *)
  mutable s_evaluations : int;
  mutable s_round : int;
  mutable s_finished : bool;
  mutable s_incidents : Incident.t list;  (* newest first *)
  mutable s_rollback : (Network.t * float) list;
      (* earlier best circuits and errors, newest first, at most
         [max_rollback]; kept only when the run certifies *)
}

(* 2: [Config.t] gained [incremental] (changing the marshaled snapshot
   layout) and checkpoints store a tracker-free copy of the working
   circuit.
   3: [Config.t] gained [audit_every]/[certify]; snapshots carry the
   degradation ladder, the degradation reason and the incident list, so a
   resumed run reports the same audit history as an uninterrupted one.
   4: [Config.t] gained [max_memory_mb] and the ladder gained a
   resource-pressure reason.
   5: the ladder lost its rebuild level and manual reason, and no longer
   stores its initial level.
   6: [Candidate_gen.config] (inside [Config.t]) shrank from nine fields to
   three; the others became generator constants.
   7: the ladder, the degraded flag and the degradation reason are gone
   (all derived from the incident list); snapshots carry the certification
   rollback list; [Config.t] lost [sigma]. *)
let snapshot_version = 7

exception Incompatible_snapshot of { found : int; expected : int }

let snapshot_round s = s.s_round
let snapshot_finished s = s.s_finished
let snapshot_circuit s = Network.name s.s_original

let patterns_for config net =
  Sim.for_network ~seed:config.Config.seed ~count:config.Config.samples
    ~exhaustive_limit:config.Config.exhaustive_limit net

(* Eq. (1): estimated error of applying a LAC set on a circuit with error e. *)
let estimate_for e lacs =
  List.fold_left (fun acc lac -> acc +. lac.Lac.delta_error) e lacs

type round = {
  config : Config.t;
  pool : Pool.t;
  eval : Round_eval.t;
  ctx : Round_ctx.t;
  rng : Prng.t;
  e : float;
  e_b : float;
  single : bool;
}

type choice = {
  mode : Trace.mode;
  top : int;
  sol : int;
  indp : int;
  rand : int;
  chose_indp : bool option;
  applied : Lac.t list;
  skipped : int;
  e_new : float;
  reverted : bool;
}

type step = {
  name : string;
  shortlist : round -> int;
  select : round -> Lac.t list -> choice option * int;
}

let phase r name f = Stats.time_phase (Pool.stats r.pool) name f

(* Commit the first shortlisted LAC that applies without closing a cycle. *)
let commit_first r scored =
  match phase r "evaluate" (fun () -> Round_eval.eval_single r.eval scored) with
  | None -> None
  | Some (lac, e_new) ->
    phase r "evaluate" (fun () -> Round_eval.commit_single r.eval lac);
    Some (lac, e_new)

let single_lac r scored =
  ( Option.map
      (fun (lac, e_new) ->
        {
          mode = Trace.Single;
          top = 1;
          sol = 1;
          indp = 0;
          rand = 0;
          chose_indp = None;
          applied = [ lac ];
          skipped = 0;
          e_new;
          reverted = false;
        })
      (commit_first r scored),
    0 )

(* Algorithm 1's multi-LAC selection: L_top, the conflict graph's MIS
   L_sol, then the better of L_indp and the random comparison set L_rand. *)
let multi_lac r scored =
  let config = r.config in
  let l_indp, l_rand, l_top, l_sol =
    phase r "select" (fun () ->
        let l_top =
          Top_set.obtain ~r_ref:config.Config.r_ref ~e:r.e ~e_b:r.e_b scored
        in
        let l_sol, _n_sol = Conflict_graph.find_and_solve l_top in
        let l_indp =
          Independent_select.select ~pool:r.pool config r.ctx ~l_sol ~e:r.e
            ~e_b:r.e_b
        in
        let l_rand =
          if config.Config.use_random_comparison then
            Independent_select.select_random config r.rng ~l_sol ~e:r.e
              ~e_b:r.e_b
          else []
        in
        (l_indp, l_rand, l_top, l_sol))
  in
  let (applied1, skipped1, e1), (applied2, skipped2, e2) =
    phase r "evaluate" (fun () ->
        let r1 = Round_eval.eval_set r.eval l_indp in
        let r2 =
          if l_rand = [] then ([], [], infinity)
          else Round_eval.eval_set r.eval l_rand
        in
        (r1, r2))
  in
  if applied1 = [] && applied2 = [] then (None, 0)
  else begin
    (* Paper's choice rule: error first, then LAC count. *)
    let choose_indp =
      (applied2 = [])
      || (applied1 <> []
          && (e1 < e2
              || (e1 = e2 && List.length applied1 >= List.length applied2)))
    in
    let e_new, applied, skipped =
      if choose_indp then (e1, applied1, skipped1)
      else (e2, applied2, skipped2)
    in
    let choice ~applied ~skipped ~e_new ~reverted =
      {
        mode = Trace.Multi;
        top = List.length l_top;
        sol = List.length l_sol;
        indp = List.length l_indp;
        rand = List.length l_rand;
        chose_indp = Some choose_indp;
        applied;
        skipped;
        e_new;
        reverted;
      }
    in
    (* Improvement 2: detect a negative LAC set and revert. *)
    let beta =
      if e_new > 0.0 then (e_new -. estimate_for r.e applied) /. e_new else 0.0
    in
    if config.Config.use_improvement_2 && e_new > 0.0 && beta > config.Config.l_d
    then
      ( Option.map
          (fun (lac, e_s) ->
            choice ~applied:[ lac ] ~skipped:0 ~e_new:e_s ~reverted:true)
          (commit_first r scored),
        0 )
    else begin
      phase r "evaluate" (fun () -> Round_eval.commit_set r.eval applied);
      ( Some
          (choice ~applied ~skipped:(List.length skipped) ~e_new ~reverted:false),
        0 )
    end
  end

(* Improvement 1: while the error is above l_e * e_b, take single-LAC
   steps. The single-LAC shortlist is capped, since only its argmin is
   used. *)
let accals_single r =
  r.single
  || (r.config.Config.use_improvement_1 && r.e > r.config.Config.l_e *. r.e_b)

let accals =
  {
    name = "accals";
    shortlist =
      (fun r ->
        if accals_single r then min 64 r.config.Config.shortlist
        else r.config.Config.shortlist);
    select =
      (fun r scored ->
        if accals_single r then single_lac r scored else multi_lac r scored);
  }

let ratio x x0 = if x0 = 0.0 then 1.0 else x /. x0

let max_rollback = 8

(* A snapshot the loop no longer mutates: a fresh record whose working
   circuit and PRNG are copies, since the loop keeps mutating both (the
   circuit copy also drops the signature database's change tracker, which
   must never be marshaled). Every other field is immutable, or replaced
   rather than mutated by the loop. *)
let copy_snapshot st =
  {
    st with
    s_current = ref (Network.copy !(st.s_current));
    s_rng = Prng.copy st.s_rng;
  }

let run_loop ~step ?patterns ?pool ?checkpoint st =
  let config = st.s_config in
  let metric = st.s_metric in
  let e_b = st.s_error_bound in
  let net = st.s_original in
  Telemetry.with_span ~cat:"engine"
    ~args:
      [
        ("circuit", Tjson.String (Network.name net));
        ("method", Tjson.String step.name);
        ("start_round", Tjson.Int st.s_round);
      ]
    "engine.run"
  @@ fun () ->
  let pool, owned_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Pool.create ~jobs:config.Config.jobs, true)
  in
  let stats = Pool.stats pool in
  let phase name f = Stats.time_phase stats name f in
  (* Per-round engine metrics live in the pool's registry, next to the
     phase clocks and the work counters they contextualize. *)
  let m = Stats.metrics stats in
  let c_rounds =
    Metrics.counter m "accals_rounds_total" ~help:"Synthesis rounds executed"
  in
  let c_candidates =
    Metrics.counter m "accals_candidates_total"
      ~help:"LAC candidates generated across all rounds"
  in
  let c_applied =
    Metrics.counter m "accals_lacs_applied_total" ~help:"LACs committed"
  in
  let c_skipped =
    Metrics.counter m "accals_lacs_skipped_total"
      ~help:"LACs skipped by the acyclicity guard"
  in
  let c_evals =
    Metrics.counter m "accals_estimator_evaluations_total"
      ~help:
        "Shortlisted LACs the estimator scored exactly (signature differs \
         from the target's)"
  in
  let c_cache_hits =
    Metrics.counter m "accals_estimator_cone_cache_hits_total"
      ~help:"Estimator transitive-fanout cone cache hits"
  in
  let c_cache_misses =
    Metrics.counter m "accals_estimator_cone_cache_misses_total"
      ~help:"Estimator transitive-fanout cone cache misses"
  in
  let c_resim_nodes =
    Metrics.counter m "accals_resim_nodes_total"
      ~help:"Node evaluations during resimulation"
  in
  let c_resim_stops =
    Metrics.counter m "accals_resim_early_stops_total"
      ~help:"Resimulation evaluations pruned by bit-equal convergence"
  in
  let c_resim_recycles =
    Metrics.counter m "accals_resim_buffer_recycles_total"
      ~help:"Signature buffer pool hits during resimulation"
  in
  let c_journal_undos =
    Metrics.counter m "accals_journal_undos_total"
      ~help:"Sigdb undo-journal reverts"
  in
  let c_journal_entries =
    Metrics.counter m "accals_journal_entries_undone_total"
      ~help:"Sigdb journal entries reverted (journal depth summed over undos)"
  in
  let c_audits =
    Metrics.counter m "accals_audits_total" ~help:"Shadow audits performed"
  in
  let c_targets_reused =
    Metrics.counter m "accals_candidates_targets_reused_total"
      ~help:"Targets whose candidate list was re-emitted from the generator memo"
  in
  let c_targets_rekeyed =
    Metrics.counter m "accals_candidates_targets_rekeyed_total"
      ~help:
        "Re-emitted targets whose frame had changed but whose ranked prefix \
         matched the memo entry"
  in
  let c_targets_regenerated =
    Metrics.counter m "accals_candidates_targets_regenerated_total"
      ~help:"Targets whose candidate list was generated afresh"
  in
  let c_sop_sections_reused =
    Metrics.counter m "accals_candidates_sop_sections_reused_total"
      ~help:"Regenerated targets whose SOP candidates were copied from the memo"
  in
  let c_cuts_recomputed =
    Metrics.counter m "accals_cuts_nodes_recomputed_total"
      ~help:"Nodes whose cut set the generator memo recomputed"
  in
  (* The candidates span's args and registry counters for the generator
     memo's work counters. *)
  let work_counters =
    Candidate_gen.
      [
        ("candidates_targets_reused", c_targets_reused, fun w -> w.targets_reused);
        ("candidates_targets_rekeyed", c_targets_rekeyed, fun w -> w.targets_rekeyed);
        ( "candidates_targets_regenerated",
          c_targets_regenerated,
          fun w -> w.targets_regenerated );
        ( "candidates_sop_sections_reused",
          c_sop_sections_reused,
          fun w -> w.sop_sections_reused );
        ("cuts_nodes_recomputed", c_cuts_recomputed, fun w -> w.cuts_recomputed);
      ]
  in
  let g_gc_minor =
    Metrics.gauge m "accals_gc_minor_collections"
      ~help:"GC minor collections since program start (sampled per round)"
  in
  let g_gc_major =
    Metrics.gauge m "accals_gc_major_collections"
      ~help:"GC major collections since program start (sampled per round)"
  in
  let g_gc_heap_words =
    Metrics.gauge m "accals_gc_heap_words"
      ~help:"Major heap size in words (sampled per round)"
  in
  let g_memory_bytes =
    Metrics.gauge m "accals_memory_bytes"
      ~help:
        "Estimated process footprint: GC major heap plus discardable \
         derived state (cone cache, signature buffer pool), sampled per \
         round"
  in
  let patterns =
    match patterns with Some p -> p | None -> patterns_for config net
  in
  let started = Clock.now () in
  let golden = phase "simulate" (fun () -> Evaluate.output_signatures net patterns) in
  let area0 = Cost.area net in
  let delay0 = Cost.delay net in
  let audits = ref 0 in
  let ev =
    Round_eval.create ~incremental:config.Config.incremental
      ~current:st.s_current ~patterns ~golden ~metric
  in
  (* Every feasible commit, single- or multi-LAC, goes through here. The
     previous best becomes a certification rollback candidate. *)
  let take_best e_new =
    if config.Config.certify then
      st.s_rollback <-
        (st.s_best, st.s_best_error)
        :: List.filteri (fun i _ -> i < max_rollback - 1) st.s_rollback;
    st.s_best <- Network.copy !(st.s_current);
    st.s_best_error <- e_new
  in
  let run_watchdog = Watchdog.start config.Config.run_deadline in
  (* Checkpointed state is validated first: persisting (or handing out) a
     structurally broken network would silently poison every later resume,
     so fail loudly here instead. *)
  let emit_checkpoint () =
    Option.iter
      (fun save ->
        Network.validate !(st.s_current);
        Network.validate st.s_best;
        save (copy_snapshot st))
      checkpoint
  in
  let degradation () = Degradation.of_incidents (List.rev st.s_incidents) in
  (* The one place an anomaly is recorded. Everything the run does about
     it afterwards (single-LAC, stopping, the degraded flag and reason) is
     derived from the incident list by [Degradation]. *)
  let record kind =
    let i = Incident.make ~round:st.s_round kind in
    st.s_incidents <- i :: st.s_incidents;
    let level = (degradation ()).Degradation.level in
    let args =
      [
        ("kind", Tjson.String (Incident.kind_name i));
        ("round", Tjson.Int st.s_round);
        ("level", Tjson.String (Degradation.level_to_string level));
      ]
    in
    Telemetry.instant ~cat:"incident" ~args "incident";
    Telemetry.event (fun () ->
        Tjson.Obj (("event", Tjson.String "incident") :: args))
  in
  Telemetry.event (fun () ->
      Tjson.Obj
        [
          ("event", Tjson.String "run_start");
          ("circuit", Tjson.String (Network.name net));
          ("method", Tjson.String step.name);
          ("metric", Tjson.String (Metric.kind_to_string metric));
          ("error_bound", Tjson.Float e_b);
          ("start_round", Tjson.Int st.s_round);
          ("jobs", Tjson.Int config.Config.jobs);
        ]);
  (* The shadow audit: re-derive the round's signatures and error from
     scratch and compare with what the fast path believes. Every divergence
     drops the signature database, and the next round reattaches a fresh
     one built from the working circuit. After the first divergence the
     run carries on multi-LAC, with the result an undisturbed run would
     have; a second moves it to single-LAC and a third stops it with the
     best circuit so far ([Degradation]). The incidents are in the
     snapshot, so the escalation survives a resume. *)
  let maybe_audit () =
    if not st.s_finished then begin
      let due =
        config.Config.audit_every > 0
        && st.s_round mod config.Config.audit_every = 0
      in
      let anomaly = not (Round_eval.watermark_ok ev) in
      if due || anomaly then begin
        incr audits;
        Metrics.incr c_audits;
        (match Shadow.selftest_round () with
         | Some r when r = st.s_round ->
           ignore (Round_eval.corrupt_for_selftest ev)
         | _ -> ());
        match
          phase "audit" (fun () ->
              Round_eval.audit ev ~recorded_error:st.s_error)
        with
        | Shadow.Clean -> ()
        | Shadow.Divergence d ->
          record
            (Incident.Audit_divergence
               {
                 backend = d.Shadow.backend;
                 nodes = d.Shadow.nodes;
                 fp_reference = d.Shadow.fp_reference;
                 fp_observed = d.Shadow.fp_observed;
                 recorded_error = d.Shadow.recorded_error;
                 reference_error = d.Shadow.reference_error;
               });
          Round_eval.reset ev;
          if (degradation ()).Degradation.stopped then st.s_finished <- true
      end
    end
  in
  (* The memory governor. Sampled once per round boundary; responses
     escalate and each rung preserves the bit-identity contract for every
     circuit the run does emit:
     - soft pressure (>= 85% of the budget): drop the discardable derived
       state — estimator cone cache, idle signature buffers — and compact.
       Pure space/time trade; scores and tie-breaks cannot change.
     - hard pressure (>= 100%) surviving that relief: checkpoint and stop
       degraded with a [Resource_exhausted] incident — the caller (or the
       serve daemon) sheds the job with a structured error instead of
       letting the OOM killer pick a victim. *)
  let mem_budget =
    if config.Config.max_memory_mb <= 0 then None
    else begin
      let b =
        Budget.Memory.create
          ~limit_bytes:(config.Config.max_memory_mb * 1024 * 1024)
      in
      Budget.Memory.register_source b ~name:"round_eval" (fun () ->
          Round_eval.aux_bytes ev);
      Some b
    end
  in
  let govern_memory () =
    match mem_budget with
    | None -> ()
    | Some mb ->
      let used = Budget.Memory.sample mb in
      Metrics.set g_memory_bytes (float_of_int used);
      if Budget.Memory.classify mb ~bytes:used <> Budget.Memory.Nominal
         && not st.s_finished
      then begin
        let cones, bufs, memo_bytes = phase "govern" (fun () ->
            let relief = Round_eval.relieve_memory ev in
            Gc.compact ();
            relief)
        in
        let used' = Budget.Memory.sample mb in
        Metrics.set g_memory_bytes (float_of_int used');
        Telemetry.instant ~cat:"budget"
          ~args:
            [
              ("bytes_before", Tjson.Int used);
              ("bytes_after", Tjson.Int used');
              ("limit_bytes", Tjson.Int (Budget.Memory.limit_bytes mb));
              ("cones_dropped", Tjson.Int cones);
              ("buffers_dropped", Tjson.Int bufs);
              ("memo_bytes_dropped", Tjson.Int memo_bytes);
            ]
          "budget.memory_relief";
        if Budget.Memory.classify mb ~bytes:used' = Budget.Memory.Hard then begin
          record
            (Incident.Resource_exhausted
               {
                 resource = "memory";
                 limit = float_of_int (Budget.Memory.limit_bytes mb);
                 observed = float_of_int used';
               });
          (* The checkpoint below is terminal, so a restart with more memory
             resumes instead of redoing the work. *)
          st.s_finished <- true
        end
      end
  in
  Fun.protect ~finally:(fun () -> if owned_pool then Pool.shutdown pool)
  @@ fun () ->
  while (not st.s_finished) && st.s_round < config.Config.max_rounds do
    if Watchdog.expired run_watchdog then begin
      (* Run deadline: stop gracefully with the best circuit so far. *)
      record (Incident.Watchdog_expired { scope = "run" });
      st.s_finished <- true
    end
    else begin
    st.s_round <- st.s_round + 1;
    Telemetry.with_span ~cat:"engine"
      ~args:[ ("round", Tjson.Int st.s_round) ]
      "round"
    @@ fun () ->
    let round_watchdog = Watchdog.start config.Config.round_deadline in
    (* The previous round's generator state is garbage now: similarity
       buckets, QM covers, the generator memo's replaced entries and cut
       sets, shortlist entries evicted after they were promoted, and at
       -j>1 the per-target candidate lists. The
       runtime paces major work by allocation volume, so finish the cycle
       here: the peak heap then holds one round's state, not several
       (perfbench er-suite peak heap 2.4-2.5 MiB with this call, 3.0-3.2
       MiB without; DESIGN.md section 3.1). *)
    Gc.major ();
    let ctx, est = phase "simulate" (fun () -> Round_eval.begin_round ev) in
    let r =
      {
        config;
        pool;
        eval = ev;
        ctx;
        rng = st.s_rng;
        e = st.s_error;
        e_b;
        single = (degradation ()).Degradation.level = Degradation.Single_lac;
      }
    in
    (* The generator's work this round, read off the memo's running
       counters (none without a memo): onto the phase's span and into the
       registry. *)
    let memo = Round_eval.generator ev in
    let work_start = Option.map Candidate_gen.memo_work memo in
    let work_since counter =
      match (memo, work_start) with
      | Some m, Some w0 -> counter (Candidate_gen.memo_work m) - counter w0
      | _ -> 0
    in
    let shortlisted =
      Stats.time_phase (Pool.stats pool) "candidates"
        ~end_args:(fun () ->
          List.map
            (fun (arg, _, counter) -> (arg, Tjson.Int (work_since counter)))
            work_counters)
        (fun () ->
          Estimator.shortlist est ~k:(step.shortlist r)
            (Candidate_gen.iter ~pool ?memo ctx config.Config.candidate))
    in
    List.iter (fun (_, c, counter) -> Metrics.add c (work_since counter)) work_counters;
    let candidates = shortlisted.Estimator.seen in
    if candidates = 0 then st.s_finished <- true
    else begin
      let mode =
        if config.Config.exact_estimation then Estimator.Exact
        else Estimator.Approximate
      in
      let scored =
        phase "estimate" (fun () -> Estimator.evaluate ~mode ~pool est shortlisted)
      in
      let evals_delta = Round_eval.take_evaluations ev in
      st.s_evaluations <- st.s_evaluations + evals_delta;
      Metrics.add c_evals evals_delta;
      (* Round deadline: degrade this round to the cheap single-LAC path
         rather than blowing the budget further. Recorded once per run. *)
      let wd_round = Watchdog.expired round_watchdog in
      let round_expiry = Incident.Watchdog_expired { scope = "round" } in
      if wd_round
         && not (List.exists (fun i -> i.Incident.kind = round_expiry) st.s_incidents)
      then record round_expiry;
      let choice, probes =
        if scored = [] then (None, 0)
        else step.select { r with single = r.single || wd_round } scored
      in
      st.s_evaluations <- st.s_evaluations + probes;
      match choice with
      | None -> st.s_finished <- true
      | Some c ->
        let e_before = st.s_error in
        st.s_error <- c.e_new;
        let applied = List.length c.applied in
        let e_est = estimate_for e_before c.applied in
        let resim_nodes, resim_converged, resim_recycled =
          Round_eval.take_counters ev
        in
        let area = Cost.area !(st.s_current) in
        st.s_rounds <-
          {
            Trace.index = st.s_round;
            mode = c.mode;
            candidates;
            top_count = c.top;
            sol_count = c.sol;
            indp_count = c.indp;
            rand_count = c.rand;
            chose_indp = c.chose_indp;
            applied;
            skipped_cycles = c.skipped;
            error_before = e_before;
            error_after = c.e_new;
            estimated_error = e_est;
            reverted = c.reverted;
            area;
            resim_nodes;
            resim_converged;
            resim_recycled;
          }
          :: st.s_rounds;
        Metrics.incr c_rounds;
        Metrics.add c_candidates candidates;
        Metrics.add c_applied applied;
        Metrics.add c_skipped c.skipped;
        Metrics.add c_resim_nodes resim_nodes;
        Metrics.add c_resim_stops resim_converged;
        Metrics.add c_resim_recycles resim_recycled;
        let aux = Round_eval.take_aux ev in
        Metrics.add c_cache_hits aux.Round_eval.cache_hits;
        Metrics.add c_cache_misses aux.Round_eval.cache_misses;
        Metrics.add c_journal_undos aux.Round_eval.journal_undos;
        Metrics.add c_journal_entries aux.Round_eval.journal_entries;
        let gc = Gc.quick_stat () in
        Metrics.set g_gc_minor (float_of_int gc.Gc.minor_collections);
        Metrics.set g_gc_major (float_of_int gc.Gc.major_collections);
        Metrics.set g_gc_heap_words (float_of_int gc.Gc.heap_words);
        Telemetry.event (fun () ->
            Tjson.Obj
              [
                ("event", Tjson.String "round");
                ("round", Tjson.Int st.s_round);
                ( "mode",
                  Tjson.String
                    (match c.mode with
                     | Trace.Multi -> "multi"
                     | Trace.Single -> "single") );
                ("candidates", Tjson.Int candidates);
                ("applied", Tjson.Int applied);
                ("error", Tjson.Float c.e_new);
                ("estimated_error", Tjson.Float e_est);
                ("area", Tjson.Float area);
                ("reverted", Tjson.Bool c.reverted);
              ]);
        Telemetry.progress_round ~round:st.s_round
          ~max_rounds:config.Config.max_rounds ~error:c.e_new ~threshold:e_b
          ~area;
        if c.e_new <= e_b then take_best c.e_new else st.s_finished <- true
    end;
    if config.Config.validate_rounds then Network.validate !(st.s_current);
    maybe_audit ();
    govern_memory ();
    emit_checkpoint ()
    end
  done;
  (* Persist the terminal state so resuming a completed (or degraded) run
     reproduces its report without redoing any round. *)
  st.s_finished <- true;
  emit_checkpoint ();
  let approximate0 = Cleanup.compact st.s_best in
  (* Certification: re-measure the result with an independent PRNG stream
     (exhaustively when the width permits) and, if the independent
     measurement violates the bound, walk back through earlier feasible
     circuits — ending at the exact original — rather than emit a violating
     result. *)
  let certification, approximate, reported_error =
    if not config.Config.certify then (None, approximate0, st.s_best_error)
    else
      phase "certify" (fun () ->
          let measure circuit =
            Certify.measure ~golden:net ~approx:circuit ~metric
              ~seed:config.Config.seed ~samples:config.Config.samples
          in
          let candidates =
            (fun () -> (approximate0, st.s_best_error))
            :: List.map (fun (c, e) () -> (Cleanup.compact c, e)) st.s_rollback
            @ [ (fun () -> (Cleanup.compact net, 0.0)) ]
          in
          let outcome, circuit, sampled_error =
            Certify.certify_with_rollback ~measure ~bound:e_b ~candidates
              ~on_violation:(fun ~step ~measured ->
                record
                  (Incident.Certification_violation
                     { measured; bound = e_b; step }))
          in
          (Some outcome, circuit, sampled_error))
  in
  let runtime_seconds = Clock.now () -. started in
  Telemetry.progress_finish ();
  let stats_snap = Stats.snapshot stats in
  let degraded = (degradation ()).Degradation.reason <> None in
  Telemetry.event (fun () ->
      Tjson.Obj
        [
          ("event", Tjson.String "run_end");
          ("circuit", Tjson.String (Network.name net));
          ("rounds", Tjson.Int st.s_round);
          ("error", Tjson.Float reported_error);
          ("runtime_seconds", Tjson.Float runtime_seconds);
          ("evaluations", Tjson.Int st.s_evaluations);
          ("audits", Tjson.Int !audits);
          ("degraded", Tjson.Bool degraded);
        ]);
  {
    original = net;
    approximate;
    error = reported_error;
    metric;
    error_bound = e_b;
    rounds = List.rev st.s_rounds;
    runtime_seconds;
    exact_evaluations = st.s_evaluations;
    area_ratio = ratio (Cost.area approximate) area0;
    delay_ratio = ratio (Cost.delay approximate) delay0;
    adp_ratio = ratio (Cost.adp approximate) (area0 *. delay0);
    degraded;
    audits = !audits;
    incidents = List.rev st.s_incidents;
    certification;
    stats = stats_snap;
    metrics =
      Metrics.merge stats_snap.Stats.metrics
        (Metrics.snapshot (Telemetry.metrics ()));
  }

let run ?(step = accals) ?config ?patterns ?pool ?checkpoint net ~metric
    ~error_bound =
  if error_bound <= 0.0 then invalid_arg "Engine.run: error bound must be positive";
  if step != accals && checkpoint <> None then
    invalid_arg "Engine.run: only the AccALS step can be checkpointed";
  let config = match config with Some c -> c | None -> Config.for_network net in
  run_loop ~step ?patterns ?pool ?checkpoint
    {
      s_version = snapshot_version;
      s_original = net;
      s_config = config;
      s_metric = metric;
      s_error_bound = error_bound;
      s_current = ref (Network.copy net);
      s_rng = Prng.create (config.Config.seed + 77);
      s_best = Network.copy net;
      s_error = 0.0;
      s_best_error = 0.0;
      s_rounds = [];
      s_evaluations = 0;
      s_round = 0;
      s_finished = false;
      s_incidents = [];
      s_rollback = [];
    }

let resume ?jobs ?patterns ?pool ?checkpoint snapshot =
  if snapshot.s_version <> snapshot_version then
    raise
      (Incompatible_snapshot
         { found = snapshot.s_version; expected = snapshot_version });
  let config =
    match jobs with
    | None -> snapshot.s_config
    | Some j -> { snapshot.s_config with Config.jobs = max 1 j }
  in
  (* Run on a copy so the caller's snapshot stays reusable (resume the
     same snapshot twice and both runs are identical). *)
  run_loop ~step:accals ?patterns ?pool ?checkpoint
    { (copy_snapshot snapshot) with s_config = config }
