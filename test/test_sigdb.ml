(* Property tests for the incremental signature database: on random
   circuits driven through random LAC sequences, the incremental paths
   (commit + resimulate, journal + overlay evaluation, journal + undo)
   must be bit-identical to rebuilding everything from scratch. *)

open Accals_network
module Sigdb = Accals_sigdb.Sigdb
module Round_ctx = Accals_lac.Round_ctx
module Lac = Accals_lac.Lac
module Candidate_gen = Accals_lac.Candidate_gen
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Bitvec = Accals_bitvec.Bitvec
module Prng = Accals_bitvec.Prng
module Metric = Accals_metrics.Metric
module Config = Accals.Config
module Engine = Accals.Engine
module Trace = Accals.Trace

let check = Alcotest.(check bool)

let random_net seed =
  Accals_circuits.Random_logic.make ~name:"sigdb" ~inputs:8 ~outputs:5
    ~gates:120 ~seed

let patterns_for net = Sim.for_network ~seed:7 ~count:256 ~exhaustive_limit:0 net

(* Pick a pseudo-random subset (at most [limit]) of the generated LACs,
   spread across the candidate list so all kinds get exercised. *)
let random_subset rng limit candidates =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  if n = 0 then []
  else
    List.init (min limit n) (fun _ -> arr.(Prng.int rng n))
    |> List.sort_uniq compare

(* Structural identity of the mutable network: node table + output table. *)
let net_fingerprint net =
  let n = Network.num_nodes net in
  ( n,
    List.init n (fun i ->
        if Network.is_input net i then None
        else Some (Network.op net i, Array.to_list (Network.fanins net i))),
    Array.to_list (Network.outputs net),
    Array.to_list (Network.output_names net) )

(* Compare every view the engine consumes against a from-scratch rebuild
   of the same network. *)
let check_views_against_scratch db net patterns =
  let fresh = Round_ctx.create net patterns in
  Alcotest.(check (array bool)) "live set" fresh.Round_ctx.live (Sigdb.live_view db);
  Alcotest.(check (array int)) "topo order" fresh.Round_ctx.order (Sigdb.order_view db);
  Alcotest.(check (array int))
    "fanout counts" fresh.Round_ctx.fanout_counts (Sigdb.fanout_counts_view db);
  Array.iteri
    (fun id fo ->
      Alcotest.(check (array int))
        (Printf.sprintf "fanouts of %d" id)
        fo
        (Sigdb.fanouts_view db).(id))
    fresh.Round_ctx.fanouts;
  let sigs = Sigdb.sigs_view db in
  Array.iteri
    (fun id live ->
      if live then
        check
          (Printf.sprintf "signature of live node %d" id)
          true
          (Bitvec.equal fresh.Round_ctx.sigs.(id) sigs.(id)))
    fresh.Round_ctx.live

(* --- committed path: apply / resimulate / sweep / refresh --- *)

let test_resimulate_matches_scratch () =
  List.iter
    (fun seed ->
      let net = random_net seed in
      let patterns = patterns_for net in
      let rng = Prng.create (100 + seed) in
      let db = Sigdb.create net patterns in
      for _round = 1 to 4 do
        let ctx = Round_ctx.of_sigdb db in
        let candidates =
          Candidate_gen.generate ctx Candidate_gen.default_config
        in
        let subset = random_subset rng 6 candidates in
        let _applied, _skipped = Lac.apply_many net subset in
        Sigdb.resimulate db;
        Cleanup.sweep net;
        ignore (Sigdb.refresh db);
        check_views_against_scratch db net patterns
      done;
      Sigdb.detach db)
    [ 1; 2; 3; 4; 5 ]

(* --- speculative path: journal overlay error, then undo --- *)

let test_journal_eval_and_undo () =
  List.iter
    (fun seed ->
      let net = random_net seed in
      let patterns = patterns_for net in
      let golden = Evaluate.output_signatures net patterns in
      let rng = Prng.create (200 + seed) in
      let db = Sigdb.create net patterns in
      for _round = 1 to 3 do
        let ctx = Round_ctx.of_sigdb db in
        let candidates =
          Candidate_gen.generate ctx Candidate_gen.default_config
        in
        (* Several speculative evaluations per round, all undone. *)
        for _attempt = 1 to 3 do
          let subset = random_subset rng 5 candidates in
          let before = net_fingerprint net in
          let sigs_before =
            Array.mapi
              (fun id live ->
                if live then Some (Bitvec.copy (Sigdb.sigs_view db).(id))
                else None)
              (Sigdb.live_view db)
          in
          (* Reference: same subset on a throwaway copy, full resim. *)
          let copy = Network.copy net in
          let applied_ref, _ = Lac.apply_many copy subset in
          let e_ref =
            Evaluate.actual_error copy patterns ~golden Metric.Error_rate
          in
          Sigdb.begin_journal db;
          let applied, _skipped = Lac.apply_many net subset in
          let e =
            Sigdb.with_journal_outputs db (fun out ->
                Metric.measure Metric.Error_rate ~golden ~approx:out)
          in
          Sigdb.undo_journal db;
          check "same applied partition" true
            (List.length applied = List.length applied_ref);
          Alcotest.(check (float 0.0)) "overlay error = from-scratch error" e_ref e;
          check "undo restores the network exactly" true
            (net_fingerprint net = before);
          Array.iteri
            (fun id s ->
              match s with
              | Some s ->
                check
                  (Printf.sprintf "undo keeps signature of %d" id)
                  true
                  (Bitvec.equal s (Sigdb.sigs_view db).(id))
              | None -> ())
            sigs_before
        done;
        (* Commit one real step so later rounds run on a mutated circuit. *)
        let subset = random_subset rng 3 candidates in
        let _ = Lac.apply_many net subset in
        Sigdb.resimulate db;
        Cleanup.sweep net;
        ignore (Sigdb.refresh db)
      done;
      Sigdb.detach db)
    [ 1; 2; 3 ]

(* --- speculative path with cleanup: sweep inside the journal --- *)

(* AMOSA-style probes sweep inside the journal, which rewires outputs
   driven through buffers; the undo must restore the output table as well
   as every definition. *)
let test_journal_sweep_undo () =
  let rewired = ref 0 in
  List.iter
    (fun seed ->
      let net = random_net seed in
      let patterns = patterns_for net in
      let golden = Evaluate.output_signatures net patterns in
      let rng = Prng.create (400 + seed) in
      let db = Sigdb.create net patterns in
      let ctx = Round_ctx.of_sigdb db in
      let candidates = Candidate_gen.generate ctx Candidate_gen.default_config in
      for _attempt = 1 to 6 do
        let subset = random_subset rng 5 candidates in
        let before = net_fingerprint net in
        let copy = Network.copy net in
        let _ = Lac.apply_many copy subset in
        Cleanup.sweep copy;
        let e_ref = Evaluate.actual_error copy patterns ~golden Metric.Error_rate in
        Sigdb.begin_journal db;
        let _ = Lac.apply_many net subset in
        let outputs = Network.outputs net in
        Cleanup.sweep net;
        if Network.outputs net <> outputs then incr rewired;
        let e =
          Sigdb.with_journal_outputs db (fun out ->
              Metric.measure Metric.Error_rate ~golden ~approx:out)
        in
        Sigdb.undo_journal db;
        Alcotest.(check (float 0.0)) "swept overlay error = from-scratch error" e_ref e;
        check "undo after sweep restores the network exactly" true
          (net_fingerprint net = before)
      done;
      Sigdb.detach db)
    [ 1; 2; 3; 4; 5; 6 ];
  check "some sweep rewired an output" true (!rewired > 0)

(* --- estimator refresh: persistent estimator = fresh estimator --- *)

(* Under every metric, after each refresh the persistent estimator scores
   like a fresh one, and its base error has the exact bits of the
   per-metric fold oracle on the current outputs. *)
let test_estimator_refresh_matches_fresh () =
  List.iter
    (fun metric ->
      List.iter
        (fun seed ->
          let net = random_net seed in
          let patterns = patterns_for net in
          let golden = Evaluate.output_signatures net patterns in
          let rng = Prng.create (300 + seed) in
          let db = Sigdb.create net patterns in
          let ctx0 = Round_ctx.of_sigdb db in
          let est = Estimator.create ctx0 ~golden ~metric in
          for round = 1 to 3 do
            let ctx = Round_ctx.of_sigdb db in
            let candidates =
              Candidate_gen.generate ctx Candidate_gen.default_config
            in
            let subset = random_subset rng 4 candidates in
            let _ = Lac.apply_many net subset in
            Sigdb.resimulate db;
            Cleanup.sweep net;
            let delta = Sigdb.refresh db in
            let ctx' = Round_ctx.of_sigdb db in
            Estimator.refresh est ctx' ~sig_changed:delta.Sigdb.sig_changed
              ~struct_dirty:delta.Sigdb.struct_dirty;
            let label =
              Printf.sprintf "%s seed %d round %d" (Metric.kind_to_string metric)
                seed round
            in
            let expected =
              Test_metrics.Oracle.measure metric ~golden
                ~approx:(Round_ctx.output_sigs ctx')
            in
            check (label ^ ": base error has the oracle's bits") true
              (Int64.bits_of_float (Estimator.base_error est)
              = Int64.bits_of_float expected);
            let fresh = Estimator.create ctx' ~golden ~metric in
            let cands = Candidate_gen.generate ctx' Candidate_gen.default_config in
            let scored = Estimator.score est ~shortlist:20 cands in
            let scored_fresh = Estimator.score fresh ~shortlist:20 cands in
            check (label ^ ": refreshed estimator scores like a fresh one") true
              (scored = scored_fresh)
          done;
          Sigdb.detach db)
        [ 1; 2; 3 ])
    Metric.[ Error_rate; Nmed; Mred; Med; Wce ]

(* --- engine level: incremental on/off, and jobs, bit-identical --- *)

let strip_counters (r : Trace.round) =
  { r with Trace.resim_nodes = 0; resim_converged = 0; resim_recycled = 0 }

let engine_key (r : Engine.report) =
  ( r.Engine.error,
    r.Engine.area_ratio,
    r.Engine.delay_ratio,
    r.Engine.adp_ratio,
    List.map strip_counters r.Engine.rounds,
    r.Engine.exact_evaluations,
    r.Engine.degraded )

(* The rebuild backend ([incremental = false]) is the reference the
   signature database and the generator memo are checked against, on the
   CLI's configuration. The comparison covers the written BLIF text as
   well as the trace. *)
let test_engine_incremental_identity () =
  List.iter
    (fun (name, seed) ->
      let net = Accals_circuits.Bench_suite.load name in
      let run ~incremental ~jobs =
        let config =
          Config.for_network
            ~base:{ Config.default with seed; jobs; incremental }
            net
        in
        Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03
      in
      let blif (r : Engine.report) = Accals_io.Blif.to_string r.Engine.approximate in
      let reference = run ~incremental:false ~jobs:1 in
      let incr1 = run ~incremental:true ~jobs:1 in
      let incr4 = run ~incremental:true ~jobs:4 in
      let label = Printf.sprintf "%s seed %d" name seed in
      check (label ^ ": incremental = rebuild") true
        (engine_key incr1 = engine_key reference);
      check (label ^ ": incremental BLIF = rebuild BLIF") true
        (blif incr1 = blif reference);
      check (label ^ ": incremental jobs=4 = jobs=1") true
        (engine_key incr4 = engine_key incr1 && blif incr4 = blif incr1);
      check
        (label ^ ": incremental round touches fewer nodes than rebuild")
        true
        (match (incr1.Engine.rounds, reference.Engine.rounds) with
        | ri :: _, rr :: _ -> ri.Trace.resim_nodes <= rr.Trace.resim_nodes
        | _ -> true))
    (* frg2, apex6 and sin run 11-16 rounds each and re-emit most
       targets' candidates from the generator memo, which the rebuild
       backend does not keep. *)
    [
      ("mtp8", 1); ("mtp8", 2); ("mtp8", 3); ("rca32", 2); ("frg2", 1);
      ("apex6", 1); ("sin", 1);
    ]

let suite =
  [
    ( "sigdb",
      [
        Alcotest.test_case "resimulate matches scratch" `Quick
          test_resimulate_matches_scratch;
        Alcotest.test_case "journal eval and undo" `Quick
          test_journal_eval_and_undo;
        Alcotest.test_case "journal sweep and undo" `Quick
          test_journal_sweep_undo;
        Alcotest.test_case "estimator refresh" `Quick
          test_estimator_refresh_matches_fresh;
        Alcotest.test_case "engine incremental identity" `Quick
          test_engine_incremental_identity;
      ] );
  ]
