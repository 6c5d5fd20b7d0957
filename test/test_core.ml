open Accals_network
open Accals_lac
module Config = Accals.Config
module Engine = Accals.Engine
module Trace = Accals.Trace
module Top_set = Accals.Top_set
module Influence = Accals.Influence
module Independent_select = Accals.Independent_select
module Metric = Accals_metrics.Metric
module Evaluate = Accals_esterr.Evaluate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Config --- *)

let test_config_buckets () =
  let c1 = Config.for_size 100 in
  check_int "small r_ref" 100 c1.Config.r_ref;
  check_int "small r_sel" 20 c1.Config.r_sel;
  let c2 = Config.for_size 600 in
  check_int "mid r_ref" 200 c2.Config.r_ref;
  check_int "mid r_sel" 40 c2.Config.r_sel;
  let c3 = Config.for_size 5000 in
  check_int "large r_ref" 400 c3.Config.r_ref;
  check_int "large r_sel" 80 c3.Config.r_sel

let test_config_paper_params () =
  let c = Config.default in
  Alcotest.(check (float 0.0)) "t_b" 0.5 c.Config.t_b;
  Alcotest.(check (float 0.0)) "lambda" 0.9 c.Config.lambda;
  Alcotest.(check (float 0.0)) "l_e" 0.9 c.Config.l_e;
  Alcotest.(check (float 0.0)) "l_d" 0.3 c.Config.l_d

(* --- Top_set (Eq. 2) --- *)

let mk_lac target delta =
  Lac.with_delta (Lac.make ~target (Lac.Wire 0) ~area_gain:1.0) delta

let test_r_top_formula () =
  (* e = 0: full max(r_ref, r_min). *)
  check_int "fresh" 10
    (Top_set.r_top_value ~r_ref:10 ~r_min:1 ~e:0.0 ~e_b:0.05 ~total:100);
  (* halfway to the bound: half. *)
  check_int "halfway" 5
    (Top_set.r_top_value ~r_ref:10 ~r_min:1 ~e:0.025 ~e_b:0.05 ~total:100);
  (* r_min dominates r_ref. *)
  check_int "r_min dominates" 50
    (Top_set.r_top_value ~r_ref:10 ~r_min:50 ~e:0.0 ~e_b:0.05 ~total:100);
  (* clamped below. *)
  check_int "min 1" 1
    (Top_set.r_top_value ~r_ref:10 ~r_min:1 ~e:0.0499 ~e_b:0.05 ~total:100);
  (* clamped above. *)
  check_int "max total" 7
    (Top_set.r_top_value ~r_ref:10 ~r_min:50 ~e:0.0 ~e_b:0.05 ~total:7)

let test_obtain_keeps_smallest () =
  let lacs = List.mapi (fun i d -> mk_lac (i + 1) d) [ 0.0; 0.01; 0.02; 0.03 ] in
  let kept = Top_set.obtain ~r_ref:2 ~e:0.0 ~e_b:1.0 lacs in
  check_int "keeps r_ref" 2 (List.length kept);
  check "keeps smallest" true
    (List.for_all (fun l -> l.Lac.delta_error <= 0.01) kept)

let test_obtain_r_min_expansion () =
  (* Four LACs tie at the minimum: all are kept even with r_ref = 2. *)
  let lacs = List.mapi (fun i d -> mk_lac (i + 1) d) [ 0.0; 0.0; 0.0; 0.0; 0.5 ] in
  let kept = Top_set.obtain ~r_ref:2 ~e:0.0 ~e_b:1.0 lacs in
  check_int "expands to r_min" 4 (List.length kept)

(* --- Influence index --- *)

let chain_net () =
  (* a -> x1 -> x2 -> x3 -> out, plus a parallel cone. *)
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let x1 = Network.add_node t Gate.Not [| a |] in
  let x2 = Network.add_node t Gate.And [| x1; b |] in
  let x3 = Network.add_node t Gate.Not [| x2 |] in
  let y1 = Network.add_node t Gate.Not [| b |] in
  let y2 = Network.add_node t Gate.Not [| y1 |] in
  Network.set_outputs t [| ("o1", x3); ("o2", y2) |];
  (t, x1, x2, x3, y1, y2)

let test_influence_path_case () =
  let t, x1, x2, x3, _, _ = chain_net () in
  let ctx = Round_ctx.create t (Sim.exhaustive 2) in
  (* adjacent: d=1 -> p=1 *)
  Alcotest.(check (float 1e-9)) "adjacent" 1.0 (Influence.index ctx x1 x2);
  (* distance 2 -> p=0.5 *)
  Alcotest.(check (float 1e-9)) "distance 2" 0.5 (Influence.index ctx x1 x3)

let test_influence_disjoint_cones () =
  let t, x1, _, _, y1, _ = chain_net () in
  let ctx = Round_ctx.create t (Sim.exhaustive 2) in
  (* x-chain and y-chain share no TFO: index 0. *)
  Alcotest.(check (float 1e-9)) "disjoint" 0.0 (Influence.index ctx x1 y1)

let test_influence_graph_edges () =
  let t, x1, x2, _, y1, _ = chain_net () in
  let ctx = Round_ctx.create t (Sim.exhaustive 2) in
  let g = Influence.build_graph ctx ~targets:[| x1; x2; y1 |] ~t_b:0.5 in
  check "x1-x2 edge (p=1)" true (Accals_mis.Graph.connected g 0 1);
  check "x1-y1 no edge" false (Accals_mis.Graph.connected g 0 2)

(* --- Independent_select sizing rule --- *)

let test_budget_prefix_non_positive () =
  (* >= r_sel non-positive LACs: take all of them. *)
  let lacs = List.mapi (fun i d -> mk_lac (i + 1) d) [ -0.01; 0.0; -0.002; 0.5 ] in
  let chosen =
    Independent_select.budget_prefix ~r_sel:2 ~lambda:0.9 ~e:0.0 ~e_b:0.05 lacs
  in
  check_int "all non-positive" 3 (List.length chosen);
  check "only non-positive" true
    (List.for_all (fun l -> l.Lac.delta_error <= 0.0) chosen)

let test_budget_prefix_lambda () =
  (* budget λ e_b = 0.045; prefix 0.01+0.02 fits, +0.03 does not. *)
  let lacs = List.mapi (fun i d -> mk_lac (i + 1) d) [ 0.01; 0.02; 0.03 ] in
  let chosen =
    Independent_select.budget_prefix ~r_sel:10 ~lambda:0.9 ~e:0.0 ~e_b:0.05 lacs
  in
  check_int "prefix" 2 (List.length chosen)

let test_budget_prefix_rsel_cap () =
  let lacs = List.mapi (fun i _ -> mk_lac (i + 1) 0.0001) (List.init 30 (fun i -> i)) in
  let chosen =
    Independent_select.budget_prefix ~r_sel:5 ~lambda:0.9 ~e:0.0 ~e_b:0.05 lacs
  in
  check_int "capped at r_sel" 5 (List.length chosen)

let test_budget_prefix_at_least_one () =
  let lacs = [ mk_lac 1 10.0 ] in
  let chosen =
    Independent_select.budget_prefix ~r_sel:5 ~lambda:0.9 ~e:0.0 ~e_b:0.05 lacs
  in
  check_int "at least one" 1 (List.length chosen)

let test_budget_prefix_empty () =
  check_int "empty in, empty out" 0
    (List.length
       (Independent_select.budget_prefix ~r_sel:5 ~lambda:0.9 ~e:0.0 ~e_b:0.05 []))

(* --- Trace --- *)

let mk_round ?(chose = None) ?(mode = Trace.Multi) ?(e_est = 0.0) ?(e_after = 0.0) index =
  {
    Trace.index;
    mode;
    candidates = 10;
    top_count = 5;
    sol_count = 4;
    indp_count = 2;
    rand_count = 2;
    chose_indp = chose;
    applied = 2;
    skipped_cycles = 0;
    error_before = 0.0;
    error_after = e_after;
    estimated_error = e_est;
    reverted = false;
    area = 100.0;
    resim_nodes = 0;
    resim_converged = 0;
    resim_recycled = 0;
  }

let test_indp_ratio () =
  let rounds =
    [
      mk_round ~chose:(Some true) 1;
      mk_round ~chose:(Some true) 2;
      mk_round ~chose:(Some false) 3;
      mk_round ~mode:Trace.Single 4;
    ]
  in
  Alcotest.(check (float 1e-9)) "ratio" (2.0 /. 3.0) (Trace.indp_ratio rounds)

let test_indp_ratio_empty () =
  Alcotest.(check (float 1e-9)) "no multi rounds" 0.0
    (Trace.indp_ratio [ mk_round ~mode:Trace.Single 1 ])

(* --- Engine end-to-end --- *)

let engine_fixture = lazy (Accals_circuits.Bench_suite.load "mtp8")

let test_engine_respects_bound () =
  let net = Lazy.force engine_fixture in
  List.iter
    (fun bound ->
      let r = Engine.run net ~metric:Metric.Error_rate ~error_bound:bound in
      check "error within bound" true (r.Engine.error <= bound);
      check "area not larger" true (r.Engine.area_ratio <= 1.0 +. 1e-9))
    [ 0.005; 0.05 ]

let test_engine_verified_independently () =
  (* Measure the report's circuit against the original with a fresh
     simulation of the same patterns. *)
  let net = Lazy.force engine_fixture in
  let config = Config.for_network net in
  let patterns =
    Sim.for_network ~seed:config.Config.seed ~count:config.Config.samples
      ~exhaustive_limit:config.Config.exhaustive_limit net
  in
  let r = Engine.run ~config ~patterns net ~metric:Metric.Error_rate ~error_bound:0.02 in
  let golden = Evaluate.output_signatures net patterns in
  let e =
    Evaluate.actual_error r.Engine.approximate patterns ~golden Metric.Error_rate
  in
  Alcotest.(check (float 1e-12)) "report error matches" r.Engine.error e;
  check "bound respected" true (e <= 0.02)

let test_engine_interface_preserved () =
  let net = Lazy.force engine_fixture in
  let r = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.01 in
  let a = r.Engine.approximate in
  check_int "inputs" (Array.length (Network.inputs net)) (Array.length (Network.inputs a));
  check_int "outputs" (Array.length (Network.outputs net)) (Array.length (Network.outputs a));
  Alcotest.(check (array string)) "output names"
    (Network.output_names net) (Network.output_names a);
  Network.validate a

let test_engine_monotone_in_bound () =
  let net = Lazy.force engine_fixture in
  let r1 = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.002 in
  let r2 = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.05 in
  check "looser bound, no worse area" true
    (r2.Engine.area_ratio <= r1.Engine.area_ratio +. 0.02)

let test_engine_deterministic () =
  let net = Lazy.force engine_fixture in
  let r1 = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.01 in
  let r2 = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.01 in
  Alcotest.(check (float 0.0)) "same area" r1.Engine.area_ratio r2.Engine.area_ratio;
  Alcotest.(check (float 0.0)) "same error" r1.Engine.error r2.Engine.error;
  check_int "same rounds" (List.length r1.Engine.rounds) (List.length r2.Engine.rounds)

let test_engine_all_metrics () =
  let net = Lazy.force engine_fixture in
  List.iter
    (fun metric ->
      let r = Engine.run net ~metric ~error_bound:0.001 in
      check "bound" true (r.Engine.error <= 0.001);
      Network.validate r.Engine.approximate)
    [ Metric.Error_rate; Metric.Nmed; Metric.Mred ]

let test_engine_rejects_bad_bound () =
  let net = Lazy.force engine_fixture in
  check "zero bound rejected" true
    (try ignore (Engine.run net ~metric:Metric.Error_rate ~error_bound:0.0); false
     with Invalid_argument _ -> true)

let prop_engine_bound_on_random_nets =
  Test_util.qcheck_case ~count:10 "engine bound on random circuits"
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let net =
        Accals_circuits.Random_logic.make ~name:"fuzz" ~inputs:8 ~outputs:5
          ~gates:70 ~seed
      in
      let r = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.04 in
      Network.validate r.Engine.approximate;
      (* Exhaustive cross-check: 8 inputs. *)
      let exact =
        Accals_analysis.Exhaustive.compare_networks ~golden:net
          ~approx:r.Engine.approximate ()
      in
      r.Engine.error <= 0.04
      && exact.Accals_analysis.Exhaustive.error_rate <= 0.04 +. 1e-9)

let test_engine_trace_consistent () =
  let net = Lazy.force engine_fixture in
  let r = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.05 in
  let rec indices i = function
    | [] -> true
    | round :: rest -> round.Trace.index = i && indices (i + 1) rest
  in
  check "round indices" true (indices 1 r.Engine.rounds);
  (* error_before chains to the previous round's error_after, except for
     reverted rounds which restart from the same error_before. *)
  let rec chained prev = function
    | [] -> true
    | round :: rest ->
      round.Trace.error_before = prev && chained round.Trace.error_after rest
  in
  check "error chain" true (chained 0.0 r.Engine.rounds)

(* Whole runs of the 13 er-suite circuits at ER <= 0.03, 2,048 samples and
   -j1: (circuit, result digest, rounds, trace-CSV MD5). A speedup of the
   per-round kernels must leave every run byte-identical. *)
let golden_runs =
  [
    ("alu4", "475044fc1e39b474ddb2618c181a14df9dea797697672674bd9db6a17906654b", 8,
     "6a7e4d754a1671b6a2ffee7eec376d08");
    ("c880", "d68487b422c48ba3a0e3d753e58d71780eefd127db6a60f6f7dba482ebb7dc3c", 7,
     "6543f9727a97fd4543d8c102bae559ae");
    ("c1908", "059f02835ce2be33345b648d2784cbecdd12c02f04eaaa2cfa766121bed5b760", 5,
     "8206f4e3a1b5ebc32393a4906b1e1793");
    ("c3540", "0ad599ba3a26967943d4276e4b987ab9923b2f336376915d58283c09f4119b3b", 9,
     "fb30f1559831ff86f863d812f9561e70");
    ("cla32", "fb48448ea058337367e1b8c4d3701f8ff36c6fa9e3abbb3db10b94f4a362e6ec", 2,
     "adb985134527c02365f2c36643e9d72c");
    ("ksa32", "5968b4b5740b075277c5f4a3996a59b48efa18d982622e620bbc18ad765684ee", 9,
     "d51ef5008ec89ae2d68fd32fa89532d3");
    ("mtp8", "46a3c90573de3d23f55970c62af5dfd5f79f43529c7a37f3333e62e3f922b1af", 2,
     "1568595623eaa80b032e182961ddbdfa");
    ("wal8", "d505d7f9ef8971f1afb5345d5ab6de085fa26cbcd42e50a0abdda2b05e55a987", 4,
     "ce23e3465044ddf94f63ad996a54a124");
    ("sqrt", "18197297d988c4ddeac8426ddae31e0b8f332e968a23cb64311cdb0f88ac835e", 4,
     "37cde65c801d6cb123534c96cd76a26b");
    ("sin", "f5ebb6036e2cc439a6aecb1b485a2607ef4121866e8c1b31162f4c3c923dc5be", 14,
     "590bb89359780689384d4d42b6e481f1");
    ("log2", "08d98f581d7b7c4ad68c762715e74033c28137dd06e10754033ff2a8e6485a99", 9,
     "0ebede35729258e7f870ebb4a553aab7");
    ("apex6", "4285d5a02c46540a3d1fbe4ae1311eb1528799d153d5e4f952eaf38c176dd358", 11,
     "2eff2ca56aeb70b3fb506ab2a849c46b");
    ("frg2", "4e7b0634be7bd35bca8a69ab708b4cfd6039dd56f48c80ef591fc69287a666cd", 16,
     "a0e362e47a5539ae9dc3415c110bc746");
  ]

let test_golden_runs () =
  List.iter
    (fun (name, digest, rounds, csv_md5) ->
      let net = Accals_circuits.Bench_suite.load name in
      let config =
        Config.for_network ~base:{ Config.default with samples = 2048; jobs = 1 } net
      in
      let r = Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03 in
      Alcotest.(check string)
        (name ^ " digest") digest
        (Network.digest r.Engine.approximate);
      check_int (name ^ " rounds") rounds (List.length r.Engine.rounds);
      Alcotest.(check string)
        (name ^ " trace csv") csv_md5
        (Digest.to_hex (Digest.string (Trace.to_csv r.Engine.rounds))))
    golden_runs

(* --- Generator memo --- *)

module Round_eval = Accals.Round_eval
module Estimator = Accals_esterr.Estimator
module Pool = Accals_runtime.Pool

(* A candidate stream's length and the MD5 of its structure. *)
let stream_key lacs =
  ( List.length lacs,
    Digest.to_hex (Digest.string (Marshal.to_string lacs [ Marshal.No_sharing ])) )

type memo_coverage = {
  rounds : int;
  after_revert : int;
  after_reset : int;
  rekeyed : int;  (** targets re-emitted after a prefix re-key *)
  sops_copied : int;  (** regenerated targets whose SOP tail was copied *)
}

(* Every round of [Engine.run]'s loop, driven by hand through the
   incremental [Round_eval]: the memoized stream must equal a fresh
   generation on the same context, in every round. [reset_after] resets
   the backend once that round has committed, as an audit divergence
   does. *)
let drive_memo ?(reset_after = 0) name metric bound =
  let net = Accals_circuits.Bench_suite.load name in
  let config = Config.for_network ~base:{ Config.default with jobs = 1 } net in
  let patterns =
    Sim.for_network ~seed:config.Config.seed ~count:config.Config.samples
      ~exhaustive_limit:config.Config.exhaustive_limit net
  in
  let golden = Evaluate.output_signatures net patterns in
  let current = ref (Network.copy net) in
  let ev = Round_eval.create ~incremental:true ~current ~patterns ~golden ~metric in
  let gen = config.Config.candidate in
  let rng = Accals_bitvec.Prng.create (config.Config.seed + 77) in
  let pool = Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let rec loop round e ~reverted ~was_reset cov =
    if round > config.Config.max_rounds then cov
    else begin
      let ctx, est = Round_eval.begin_round ev in
      let memoized = ref [] in
      let memo = Round_eval.generator ev in
      let work () =
        Option.fold ~none:(0, 0)
          ~some:(fun m ->
            let w = Candidate_gen.memo_work m in
            Candidate_gen.(w.targets_rekeyed, w.sop_sections_reused))
          memo
      in
      let rekeyed0, copied0 = work () in
      Candidate_gen.iter ?memo ctx gen (fun lac -> memoized := lac :: !memoized);
      let rekeyed1, copied1 = work () in
      let memoized = List.rev !memoized in
      let label =
        Printf.sprintf "%s %s round %d" name (Metric.kind_to_string metric) round
      in
      check (label ^ ": memoized stream = fresh generation") true
        (stream_key memoized = stream_key (Candidate_gen.generate ctx gen));
      let cov =
        {
          rounds = cov.rounds + 1;
          after_revert = (cov.after_revert + if reverted then 1 else 0);
          after_reset = (cov.after_reset + if was_reset then 1 else 0);
          rekeyed = cov.rekeyed + rekeyed1 - rekeyed0;
          sops_copied = cov.sops_copied + copied1 - copied0;
        }
      in
      let r =
        { Engine.config; pool; eval = ev; ctx; rng; e; e_b = bound; single = false }
      in
      let shortlisted =
        Estimator.shortlist est ~k:(Engine.accals.Engine.shortlist r) (fun f ->
            List.iter f memoized)
      in
      let mode =
        if config.Config.exact_estimation then Estimator.Exact else Estimator.Approximate
      in
      match Estimator.evaluate ~mode ~pool est shortlisted with
      | [] -> cov
      | scored -> (
        match fst (Engine.accals.Engine.select r scored) with
        | Some c when c.Engine.e_new <= bound ->
          if round = reset_after then Round_eval.reset ev;
          loop (round + 1) c.Engine.e_new ~reverted:c.Engine.reverted
            ~was_reset:(round = reset_after) cov
        | Some _ | None -> cov)
    end
  in
  loop 1 0.0 ~reverted:false ~was_reset:false
    { rounds = 0; after_revert = 0; after_reset = 0; rekeyed = 0; sops_copied = 0 }

(* Besides exact re-emission, the memo re-emits an entry whose ranked
   prefix still matches (a re-key) and copies the SOP tail of an entry
   whose MFFC and cuts are fresh: both paths must fire on the circuits
   that run several rounds under ER, or their streams went unchecked. *)
let test_memo_rounds_match_fresh () =
  let cov =
    List.fold_left
      (fun acc (name, metric, bound, reset_after) ->
        let c = drive_memo ~reset_after name metric bound in
        check (name ^ " ran several rounds") true (c.rounds > 3);
        if metric = Metric.Error_rate && List.mem name [ "alu4"; "frg2"; "sin"; "sqrt" ]
        then begin
          check (name ^ ": a prefix re-key fired") true (c.rekeyed > 0);
          check (name ^ ": a SOP tail was copied") true (c.sops_copied > 0)
        end;
        {
          rounds = acc.rounds + c.rounds;
          after_revert = acc.after_revert + c.after_revert;
          after_reset = acc.after_reset + c.after_reset;
          rekeyed = acc.rekeyed + c.rekeyed;
          sops_copied = acc.sops_copied + c.sops_copied;
        })
      { rounds = 0; after_revert = 0; after_reset = 0; rekeyed = 0; sops_copied = 0 }
      [
        ("alu4", Metric.Error_rate, 0.03, 0);
        ("frg2", Metric.Error_rate, 0.03, 4);
        ("apex6", Metric.Error_rate, 0.03, 0);
        ("sin", Metric.Error_rate, 0.03, 6);
        ("sqrt", Metric.Error_rate, 0.03, 0);
        ("sqrt", Metric.Nmed, 0.005, 0);
        ("wal8", Metric.Mred, 0.02, 0);
      ]
  in
  check "a round after an improvement-2 revert was checked" true (cov.after_revert > 0);
  check "a round after a reset was checked" true (cov.after_reset > 0)

(* The rebuild backend is the memo's oracle: it keeps none. *)
let test_memo_rebuild_has_none () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let patterns = Sim.for_network ~seed:1 ~count:256 ~exhaustive_limit:0 net in
  let golden = Evaluate.output_signatures net patterns in
  let make incremental =
    Round_eval.create ~incremental ~current:(ref (Network.copy net)) ~patterns ~golden
      ~metric:Metric.Error_rate
  in
  let rebuild = make false and incr = make true in
  ignore (Round_eval.begin_round rebuild);
  ignore (Round_eval.begin_round incr);
  check "rebuild: no memo" true (Round_eval.generator rebuild = None);
  check "incremental: a memo" true (Round_eval.generator incr <> None);
  Round_eval.reset incr;
  check "reset drops the memo" true (Round_eval.generator incr = None)

(* Memory relief between rounds drops the memo (and the other derived
   stores) mid-run; the next round regenerates every target, and the run's
   BLIF and trace stay those of an unrelieved run. The trace's buffer
   recycle count is the one column relief changes by design: it empties
   the signature database's buffer pool. *)
let test_memo_relief_identity () =
  List.iter
    (fun name ->
      let net = Accals_circuits.Bench_suite.load name in
      let config = Config.for_network ~base:{ Config.default with jobs = 1 } net in
      let dropped = ref 0 in
      let relieving =
        {
          Engine.accals with
          Engine.select =
            (fun r scored ->
              let choice = Engine.accals.Engine.select r scored in
              let _, _, memo_bytes = Round_eval.relieve_memory r.Engine.eval in
              dropped := !dropped + memo_bytes;
              choice);
        }
      in
      let run step = Engine.run ~step ~config net ~metric:Metric.Error_rate ~error_bound:0.03 in
      let plain = run Engine.accals and relieved = run relieving in
      check (name ^ ": relief dropped memo bytes") true (!dropped > 0);
      Alcotest.(check string)
        (name ^ " BLIF")
        (Accals_io.Blif.to_string plain.Engine.approximate)
        (Accals_io.Blif.to_string relieved.Engine.approximate);
      let trace (r : Engine.report) =
        Trace.to_csv
          (List.map (fun row -> { row with Trace.resim_recycled = 0 }) r.Engine.rounds)
      in
      Alcotest.(check string) (name ^ " trace") (trace plain) (trace relieved))
    [ "frg2"; "sin" ]

let suite =
  [
    ( "config",
      [
        Alcotest.test_case "size buckets" `Quick test_config_buckets;
        Alcotest.test_case "paper parameters" `Quick test_config_paper_params;
      ] );
    ( "top set (Eq. 2)",
      [
        Alcotest.test_case "formula" `Quick test_r_top_formula;
        Alcotest.test_case "keeps smallest" `Quick test_obtain_keeps_smallest;
        Alcotest.test_case "r_min expansion" `Quick test_obtain_r_min_expansion;
      ] );
    ( "influence index",
      [
        Alcotest.test_case "path case" `Quick test_influence_path_case;
        Alcotest.test_case "disjoint cones" `Quick test_influence_disjoint_cones;
        Alcotest.test_case "graph edges" `Quick test_influence_graph_edges;
      ] );
    ( "independent select",
      [
        Alcotest.test_case "non-positive rule" `Quick test_budget_prefix_non_positive;
        Alcotest.test_case "lambda budget" `Quick test_budget_prefix_lambda;
        Alcotest.test_case "r_sel cap" `Quick test_budget_prefix_rsel_cap;
        Alcotest.test_case "at least one" `Quick test_budget_prefix_at_least_one;
        Alcotest.test_case "empty" `Quick test_budget_prefix_empty;
      ] );
    ( "trace",
      [
        Alcotest.test_case "indp ratio" `Quick test_indp_ratio;
        Alcotest.test_case "indp ratio no multi" `Quick test_indp_ratio_empty;
      ] );
    ( "engine",
      [
        Alcotest.test_case "respects bound" `Quick test_engine_respects_bound;
        Alcotest.test_case "independently verified" `Quick test_engine_verified_independently;
        Alcotest.test_case "interface preserved" `Quick test_engine_interface_preserved;
        Alcotest.test_case "monotone in bound" `Quick test_engine_monotone_in_bound;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "all metrics" `Slow test_engine_all_metrics;
        Alcotest.test_case "rejects bad bound" `Quick test_engine_rejects_bad_bound;
        Alcotest.test_case "trace consistent" `Quick test_engine_trace_consistent;
        Alcotest.test_case "golden er-suite runs" `Slow test_golden_runs;
        prop_engine_bound_on_random_nets;
      ] );
    ( "generator memo",
      [
        Alcotest.test_case "every round matches a fresh generation" `Slow
          test_memo_rounds_match_fresh;
        Alcotest.test_case "rebuild keeps none, reset drops it" `Quick
          test_memo_rebuild_has_none;
        Alcotest.test_case "relief between rounds keeps BLIF and trace" `Quick
          test_memo_relief_identity;
      ] );
  ]
