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
module Ladder = Accals_audit.Ladder
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
  degraded_reason : Ladder.reason option;
  final_level : Ladder.level;
  ladder_events : Ladder.event list;
  ladder_summary : string;
  audits : int;
  incidents : Incident.t list;
  certification : Certify.outcome option;
  stats : Stats.snapshot;
  metrics : Metrics.snapshot;
      (* pool registry (work counters, phase seconds, per-round engine
         metrics) merged with the ambient registry (checkpoint bytes) *)
}

(* Everything Algorithm 1 carries from one round to the next. A snapshot at
   a round boundary fully determines the rest of the run: the input
   patterns, golden signatures and cost baselines are all deterministic
   functions of [s_config] and [s_original], and the only other mutable
   loop state is the PRNG. Snapshots are what [lib/resilience]'s
   [Checkpoint] persists and what [resume] continues from. *)
type snapshot = {
  s_version : int;
  s_original : Network.t;
  s_current : Network.t;
  s_best : Network.t;
  s_error : float;
  s_best_error : float;
  s_rounds : Trace.round list;  (* newest first *)
  s_evaluations : int;
  s_round : int;
  s_finished : bool;
  s_degraded : bool;
  s_rng : Prng.t;
  s_config : Config.t;
  s_metric : Metric.kind;
  s_error_bound : float;
  s_ladder : Ladder.t;
  s_degraded_reason : Ladder.reason option;
  s_incidents : Incident.t list;  (* newest first *)
}

(* 2: [Config.t] gained [incremental] (changing the marshaled snapshot
   layout) and checkpoints store a tracker-free copy of the working
   circuit.
   3: [Config.t] gained [audit_every]/[certify]; snapshots carry the
   degradation ladder, the degradation reason and the incident list, so a
   resumed run reports the same audit history as an uninterrupted one.
   4: [Config.t] gained [max_memory_mb] and [Ladder.reason] gained
   [Resource_pressure].
   5: [Ladder.level] lost [Rebuild] and [Ladder.reason] lost [Manual]
   (renumbering the marshaled tags), and the ladder no longer stores its
   initial level.
   6: [Candidate_gen.config] (inside [Config.t]) shrank from nine fields to
   three; the others became generator constants. *)
let snapshot_version = 6

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

let run_loop ?patterns ?pool ?checkpoint st =
  let config = st.s_config in
  let metric = st.s_metric in
  let e_b = st.s_error_bound in
  let net = st.s_original in
  Telemetry.with_span ~cat:"engine"
    ~args:
      [
        ("circuit", Tjson.String (Network.name net));
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
  let rng = st.s_rng in
  let current = ref st.s_current in
  let error = ref st.s_error in
  let best = ref st.s_best in
  let best_error = ref st.s_best_error in
  let rounds = ref st.s_rounds in
  let evaluations = ref st.s_evaluations in
  let round_index = ref st.s_round in
  let finished = ref st.s_finished in
  let degraded = ref st.s_degraded in
  let ladder = Ladder.copy st.s_ladder in
  let degraded_reason = ref st.s_degraded_reason in
  let incidents = ref st.s_incidents in
  let audits = ref 0 in
  (* Previously feasible best circuits, newest first, for certification
     rollback; kept only when the run certifies, since nothing else reads
     them. In-memory only: a resumed run restarts with an empty stack, so
     its rollback depth is bounded by what it has seen since resuming. *)
  let max_rollback = 8 in
  let rollback = ref [] in
  let ev =
    Round_eval.create ~incremental:config.Config.incremental ~current
      ~patterns ~golden ~metric
  in
  (* Every feasible commit, single- or multi-LAC, goes through here. *)
  let take_best e_new =
    if config.Config.certify then
      rollback :=
        (!best, !best_error)
        :: List.filteri (fun i _ -> i < max_rollback - 1) !rollback;
    best := Network.copy !current;
    best_error := e_new
  in
  let run_watchdog = Watchdog.start config.Config.run_deadline in
  (* Checkpointed state is validated first: persisting (or handing out) a
     structurally broken network would silently poison every later resume,
     so fail loudly here instead. The PRNG is copied because the loop keeps
     mutating it after the hook returns, and the working circuit is copied
     because the incremental backend mutates it in place (the copy also
     drops the signature database's change tracker, which must never be
     marshaled). *)
  let emit_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some save ->
      Network.validate !current;
      Network.validate !best;
      save
        {
          st with
          s_current = Network.copy !current;
          s_best = !best;
          s_error = !error;
          s_best_error = !best_error;
          s_rounds = !rounds;
          s_evaluations = !evaluations;
          s_round = !round_index;
          s_finished = !finished;
          s_degraded = !degraded;
          s_degraded_reason = !degraded_reason;
          s_ladder = Ladder.copy ladder;
          s_incidents = !incidents;
          s_rng = Prng.copy rng;
        }
  in
  let incident kind =
    incidents := Incident.make ~round:!round_index kind :: !incidents
  in
  (* Ladder transitions become trace instants and JSONL events; the levels
     and reasons print with their report names so traces and reports
     cross-reference directly. *)
  let ladder_event ~kind ~reason =
    let args =
      [
        ("kind", Tjson.String kind);
        ("level", Tjson.String (Ladder.level_to_string (Ladder.level ladder)));
        ("reason", Tjson.String (Ladder.reason_to_string reason));
        ("round", Tjson.Int !round_index);
      ]
    in
    Telemetry.instant ~cat:"ladder" ~args ("ladder." ^ kind);
    Telemetry.event (fun () ->
        Tjson.Obj (("event", Tjson.String "ladder") :: args))
  in
  Telemetry.event (fun () ->
      Tjson.Obj
        [
          ("event", Tjson.String "run_start");
          ("circuit", Tjson.String (Network.name net));
          ("metric", Tjson.String (Metric.kind_to_string metric));
          ("error_bound", Tjson.Float e_b);
          ("start_round", Tjson.Int !round_index);
          ("jobs", Tjson.Int config.Config.jobs);
        ]);
  (* The shadow audit: re-derive the round's signatures and error from
     scratch and compare with what the fast path believes. Every divergence
     drops the signature database, and the next round reattaches a fresh
     one built from the working circuit. The first divergence is a
     transient ladder note and the run carries on multi-LAC, with the
     result an undisturbed run would have. A repeat divergence descends to
     single-LAC, and one at single-LAC stops the run with the best circuit
     so far. The ladder is in the snapshot, so the escalation survives a
     resume. *)
  let maybe_audit () =
    if not !finished then begin
      let due =
        config.Config.audit_every > 0
        && !round_index mod config.Config.audit_every = 0
      in
      let anomaly = not (Round_eval.watermark_ok ev) in
      if due || anomaly then begin
        incr audits;
        Metrics.incr c_audits;
        (match Shadow.selftest_round () with
         | Some r when r = !round_index ->
           ignore (Round_eval.corrupt_for_selftest ev)
         | _ -> ());
        match
          phase "audit" (fun () -> Round_eval.audit ev ~recorded_error:!error)
        with
        | Shadow.Clean -> ()
        | Shadow.Divergence d ->
          incident
            (Incident.Audit_divergence
               {
                 backend = d.Shadow.backend;
                 nodes = d.Shadow.nodes;
                 fp_reference = d.Shadow.fp_reference;
                 fp_observed = d.Shadow.fp_observed;
                 recorded_error = d.Shadow.recorded_error;
                 reference_error = d.Shadow.reference_error;
               });
          degraded := true;
          if !degraded_reason = None then
            degraded_reason := Some Ladder.Audit_divergence;
          Round_eval.reset ev;
          let reason = Ladder.Audit_divergence in
          match Ladder.level ladder with
          | Ladder.Single_lac ->
            ladder_event ~kind:"stop" ~reason;
            finished := true
          | Ladder.Incremental ->
            if Ladder.note ladder ~round:!round_index ~reason then
              ladder_event ~kind:"note" ~reason
            else begin
              Ladder.descend ladder ~round:!round_index ~reason;
              ladder_event ~kind:"descend" ~reason
            end
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
         && not !finished
      then begin
        let cones, bufs = phase "govern" (fun () ->
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
            ]
          "budget.memory_relief";
        if Budget.Memory.classify mb ~bytes:used' = Budget.Memory.Hard then begin
          degraded := true;
          if !degraded_reason = None then
            degraded_reason := Some Ladder.Resource_pressure;
          if
            Ladder.note ladder ~round:!round_index
              ~reason:Ladder.Resource_pressure
          then ladder_event ~kind:"note" ~reason:Ladder.Resource_pressure;
          incident
            (Incident.Resource_exhausted
               {
                 resource = "memory";
                 limit = float_of_int (Budget.Memory.limit_bytes mb);
                 observed = float_of_int used';
               });
          (* The checkpoint below is terminal, so a restart with more memory
             resumes instead of redoing the work. *)
          finished := true
        end
      end
  in
  Fun.protect ~finally:(fun () -> if owned_pool then Pool.shutdown pool)
  @@ fun () ->
  while (not !finished) && !round_index < config.Config.max_rounds do
    if Watchdog.expired run_watchdog then begin
      (* Run deadline: stop gracefully with the best circuit so far. *)
      degraded := true;
      if !degraded_reason = None then degraded_reason := Some Ladder.Watchdog_run;
      if Ladder.note ladder ~round:!round_index ~reason:Ladder.Watchdog_run then begin
        incident (Incident.Watchdog_expired { scope = "run" });
        ladder_event ~kind:"note" ~reason:Ladder.Watchdog_run
      end;
      finished := true
    end
    else begin
    incr round_index;
    Telemetry.with_span ~cat:"engine"
      ~args:[ ("round", Tjson.Int !round_index) ]
      "round"
    @@ fun () ->
    let round_watchdog = Watchdog.start config.Config.round_deadline in
    (* The previous round's generator state is garbage now: cut sets,
       similarity buckets, QM covers, shortlist entries evicted after they
       were promoted, and at -j>1 the per-target candidate lists. The
       runtime paces major work by allocation volume, so finish the cycle
       here: the peak heap then holds one round's state, not several
       (perfbench er-suite peak heap 3.4-3.6 MiB with this call, 4.5-4.6
       MiB without; DESIGN.md section 3.1). *)
    Gc.major ();
    let ctx, est = phase "simulate" (fun () -> Round_eval.begin_round ev) in
    let single_mode =
      (config.Config.use_improvement_1 && !error > config.Config.l_e *. e_b)
      || Ladder.level ladder = Ladder.Single_lac
    in
    let shortlisted =
      phase "candidates" (fun () ->
          Estimator.shortlist est
            ~k:(if single_mode then min 64 config.Config.shortlist
                else config.Config.shortlist)
            (Candidate_gen.iter ~pool ctx config.Config.candidate))
    in
    let candidates = shortlisted.Estimator.seen in
    if candidates = 0 then finished := true
    else begin
      let mode =
        if config.Config.exact_estimation then Estimator.Exact
        else Estimator.Approximate
      in
      let scored =
        phase "estimate" (fun () -> Estimator.evaluate ~mode ~pool est shortlisted)
      in
      let evals_delta = Round_eval.take_evaluations ev in
      evaluations := !evaluations + evals_delta;
      Metrics.add c_evals evals_delta;
      (* Round deadline: degrade this round from multi-LAC selection to the
         cheap single-LAC path rather than blowing the budget further. *)
      let wd_round = Watchdog.expired round_watchdog in
      if wd_round then
        if Ladder.note ladder ~round:!round_index ~reason:Ladder.Watchdog_round
        then begin
          incident (Incident.Watchdog_expired { scope = "round" });
          ladder_event ~kind:"note" ~reason:Ladder.Watchdog_round
        end;
      let single_mode = single_mode || wd_round in
      let record ~mode ~top ~sol ~indp ~rand ~chose ~applied ~skipped ~e_before
          ~e_after ~e_est ~reverted =
        let resim_nodes, resim_converged, resim_recycled =
          Round_eval.take_counters ev
        in
        rounds :=
          {
            Trace.index = !round_index;
            mode;
            candidates;
            top_count = top;
            sol_count = sol;
            indp_count = indp;
            rand_count = rand;
            chose_indp = chose;
            applied;
            skipped_cycles = skipped;
            error_before = e_before;
            error_after = e_after;
            estimated_error = e_est;
            reverted;
            area = Cost.area !current;
            resim_nodes;
            resim_converged;
            resim_recycled;
          }
          :: !rounds;
        Metrics.incr c_rounds;
        Metrics.add c_candidates candidates;
        Metrics.add c_applied applied;
        Metrics.add c_skipped skipped;
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
        let area = Cost.area !current in
        Telemetry.event (fun () ->
            Tjson.Obj
              [
                ("event", Tjson.String "round");
                ("round", Tjson.Int !round_index);
                ( "mode",
                  Tjson.String
                    (match mode with
                     | Trace.Multi -> "multi"
                     | Trace.Single -> "single") );
                ("candidates", Tjson.Int candidates);
                ("applied", Tjson.Int applied);
                ("error", Tjson.Float e_after);
                ("estimated_error", Tjson.Float e_est);
                ("area", Tjson.Float area);
                ("reverted", Tjson.Bool reverted);
              ]);
        Telemetry.progress_round ~round:!round_index
          ~max_rounds:config.Config.max_rounds ~error:e_after ~threshold:e_b
          ~area
      in
      match scored with
      | [] -> finished := true
      | _ when single_mode -> begin
        match phase "evaluate" (fun () -> Round_eval.eval_single ev scored) with
        | None -> finished := true
        | Some (lac, e_new) ->
          phase "evaluate" (fun () -> Round_eval.commit_single ev lac);
          let e_before = !error in
          error := e_new;
          record ~mode:Trace.Single ~top:1 ~sol:1 ~indp:0 ~rand:0 ~chose:None
            ~applied:1 ~skipped:0 ~e_before ~e_after:e_new
            ~e_est:(estimate_for e_before [ lac ]) ~reverted:false;
          if e_new <= e_b then take_best e_new else finished := true
      end
      | _ -> begin
        let l_indp, l_rand, l_top, l_sol =
          phase "select" (fun () ->
              let l_top =
                Top_set.obtain ~r_ref:config.Config.r_ref ~e:!error ~e_b scored
              in
              let l_sol, _n_sol = Conflict_graph.find_and_solve l_top in
              let l_indp =
                Independent_select.select ~pool config ctx ~l_sol ~e:!error
                  ~e_b
              in
              let l_rand =
                if config.Config.use_random_comparison then
                  Independent_select.select_random config rng ~l_sol ~e:!error
                    ~e_b
                else []
              in
              (l_indp, l_rand, l_top, l_sol))
        in
        let (applied1, skipped1, e1), (applied2, skipped2, e2) =
          phase "evaluate" (fun () ->
              let r1 = Round_eval.eval_set ev l_indp in
              let r2 =
                if l_rand = [] then ([], [], infinity)
                else Round_eval.eval_set ev l_rand
              in
              (r1, r2))
        in
        if applied1 = [] && applied2 = [] then finished := true
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
          let e_before = !error in
          let e_est = estimate_for e_before applied in
          (* Improvement 2: detect a negative LAC set and revert. *)
          let beta =
            if e_new > 0.0 then (e_new -. e_est) /. e_new else 0.0
          in
          if config.Config.use_improvement_2 && e_new > 0.0 && beta > config.Config.l_d
          then begin
            match
              phase "evaluate" (fun () -> Round_eval.eval_single ev scored)
            with
            | None -> finished := true
            | Some (lac, e_s) ->
              phase "evaluate" (fun () -> Round_eval.commit_single ev lac);
              error := e_s;
              record ~mode:Trace.Multi ~top:(List.length l_top)
                ~sol:(List.length l_sol) ~indp:(List.length l_indp)
                ~rand:(List.length l_rand)
                ~chose:(Some choose_indp) ~applied:1 ~skipped:0
                ~e_before ~e_after:e_s
                ~e_est:(estimate_for e_before [ lac ]) ~reverted:true;
              if e_s <= e_b then take_best e_s else finished := true
          end
          else begin
            phase "evaluate" (fun () -> Round_eval.commit_set ev applied);
            error := e_new;
            record ~mode:Trace.Multi ~top:(List.length l_top)
              ~sol:(List.length l_sol) ~indp:(List.length l_indp)
              ~rand:(List.length l_rand) ~chose:(Some choose_indp)
              ~applied:(List.length applied)
              ~skipped:(List.length skipped)
              ~e_before ~e_after:e_new ~e_est ~reverted:false;
            if e_new <= e_b then take_best e_new else finished := true
          end
        end
      end
    end;
    if config.Config.validate_rounds then Network.validate !current;
    maybe_audit ();
    govern_memory ();
    emit_checkpoint ()
    end
  done;
  (* Persist the terminal state so resuming a completed (or degraded) run
     reproduces its report without redoing any round. *)
  finished := true;
  emit_checkpoint ();
  let approximate0 = Cleanup.compact !best in
  (* Certification: re-measure the result with an independent PRNG stream
     (exhaustively when the width permits) and, if the independent
     measurement violates the bound, walk back through earlier feasible
     circuits — ending at the exact original — rather than emit a violating
     result. *)
  let certification, approximate, reported_error =
    if not config.Config.certify then (None, approximate0, !best_error)
    else
      phase "certify" (fun () ->
          let measure circuit =
            Certify.measure ~golden:net ~approx:circuit ~metric
              ~seed:config.Config.seed ~samples:config.Config.samples
              ~exhaustive_limit:config.Config.exhaustive_limit
          in
          let candidates =
            (fun () -> (approximate0, !best_error))
            :: List.map (fun (c, e) () -> (Cleanup.compact c, e)) !rollback
            @ [ (fun () -> (Cleanup.compact net, 0.0)) ]
          in
          let outcome, circuit, sampled_error =
            Certify.certify_with_rollback ~measure ~bound:e_b ~candidates
              ~on_violation:(fun ~step ~measured ->
                incident
                  (Incident.Certification_violation
                     { measured; bound = e_b; step }))
          in
          if outcome.Certify.rollback_steps > 0 then begin
            ignore
              (Ladder.note ladder ~round:!round_index
                 ~reason:Ladder.Certification_rollback);
            ladder_event ~kind:"note" ~reason:Ladder.Certification_rollback
          end;
          (Some outcome, circuit, sampled_error))
  in
  let runtime_seconds = Clock.now () -. started in
  Telemetry.progress_finish ();
  let stats_snap = Stats.snapshot stats in
  Telemetry.event (fun () ->
      Tjson.Obj
        [
          ("event", Tjson.String "run_end");
          ("circuit", Tjson.String (Network.name net));
          ("rounds", Tjson.Int !round_index);
          ("error", Tjson.Float reported_error);
          ("runtime_seconds", Tjson.Float runtime_seconds);
          ("evaluations", Tjson.Int !evaluations);
          ("audits", Tjson.Int !audits);
          ("degraded", Tjson.Bool !degraded);
        ]);
  {
    original = net;
    approximate;
    error = reported_error;
    metric;
    error_bound = e_b;
    rounds = List.rev !rounds;
    runtime_seconds;
    exact_evaluations = !evaluations;
    area_ratio = Cost.area approximate /. area0;
    delay_ratio = Cost.delay approximate /. delay0;
    adp_ratio = Cost.adp approximate /. (area0 *. delay0);
    degraded = !degraded;
    degraded_reason = !degraded_reason;
    final_level = Ladder.level ladder;
    ladder_events = Ladder.events ladder;
    ladder_summary = Ladder.summary ladder;
    audits = !audits;
    incidents = List.rev !incidents;
    certification;
    stats = stats_snap;
    metrics =
      Metrics.merge stats_snap.Stats.metrics
        (Metrics.snapshot (Telemetry.metrics ()));
  }

let run ?config ?patterns ?pool ?checkpoint net ~metric ~error_bound =
  if error_bound <= 0.0 then invalid_arg "Engine.run: error bound must be positive";
  let config = match config with Some c -> c | None -> Config.for_network net in
  run_loop ?patterns ?pool ?checkpoint
    {
      s_version = snapshot_version;
      s_original = net;
      s_current = Network.copy net;
      s_best = Network.copy net;
      s_error = 0.0;
      s_best_error = 0.0;
      s_rounds = [];
      s_evaluations = 0;
      s_round = 0;
      s_finished = false;
      s_degraded = false;
      s_rng = Prng.create (config.Config.seed + 77);
      s_config = config;
      s_metric = metric;
      s_error_bound = error_bound;
      s_ladder = Ladder.create ();
      s_degraded_reason = None;
      s_incidents = [];
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
  (* Deep-copy the mutable pieces so the caller's snapshot stays reusable
     (resume the same snapshot twice and both runs are identical). *)
  run_loop ?patterns ?pool ?checkpoint
    {
      snapshot with
      s_config = config;
      s_current = Network.copy snapshot.s_current;
      s_best = Network.copy snapshot.s_best;
      s_rng = Prng.copy snapshot.s_rng;
      s_ladder = Ladder.copy snapshot.s_ladder;
    }
