open Accals_network
module Exhaustive = Accals_analysis.Exhaustive
module Confidence = Accals_analysis.Confidence
module Metric = Accals_metrics.Metric
module Engine = Accals.Engine
module Pareto = Accals.Pareto

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_identical_networks () =
  let net = Accals_circuits.Adders.ripple_carry ~width:4 in
  let r = Exhaustive.compare_networks ~golden:net ~approx:(Network.copy net) () in
  checkf "er" 0.0 r.Exhaustive.error_rate;
  checkf "med" 0.0 r.Exhaustive.mean_error_distance;
  checkf "wce" 0.0 r.Exhaustive.worst_case_error;
  Alcotest.(check int) "vectors" (1 lsl 9) r.Exhaustive.vectors

let test_known_error () =
  (* Flip the LSB output: every vector wrong, distance always 1. *)
  let golden = Accals_circuits.Adders.ripple_carry ~width:3 in
  let approx = Network.copy golden in
  let s0 = (Network.outputs approx).(0) in
  let replacement = Network.add_node approx Gate.Not [| s0 |] in
  let outs =
    Array.mapi
      (fun i id -> ((Network.output_names approx).(i), if i = 0 then replacement else id))
      (Network.outputs approx)
  in
  Network.set_outputs approx outs;
  let r = Exhaustive.compare_networks ~golden ~approx () in
  checkf "er all wrong" 1.0 r.Exhaustive.error_rate;
  checkf "med is 1" 1.0 r.Exhaustive.mean_error_distance;
  checkf "wce is 1" 1.0 r.Exhaustive.worst_case_error

let test_chunking_crosses_boundaries () =
  (* 15 inputs forces multiple chunks (chunk = 2^13). *)
  let golden = Accals_circuits.Adders.ripple_carry ~width:7 in
  let approx = Network.copy golden in
  let r = Exhaustive.compare_networks ~golden ~approx () in
  Alcotest.(check int) "vectors" (1 lsl 15) r.Exhaustive.vectors;
  checkf "still equal" 0.0 r.Exhaustive.error_rate

let test_exhaustive_matches_sampled_estimate () =
  (* The engine's sampled error and the exhaustive error agree when the
     pattern set itself is exhaustive. *)
  let net = Accals_circuits.Multipliers.array_multiplier ~width:4 in
  let report = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  let r =
    Exhaustive.compare_networks ~golden:net ~approx:report.Engine.approximate ()
  in
  checkf "sampled = exhaustive (8 PIs)" report.Engine.error r.Exhaustive.error_rate

let test_interface_mismatch () =
  let a = Accals_circuits.Adders.ripple_carry ~width:3 in
  let b = Accals_circuits.Adders.ripple_carry ~width:4 in
  check "rejected" true
    (try ignore (Exhaustive.compare_networks ~golden:a ~approx:b ()); false
     with Invalid_argument _ -> true)

let test_value_dispatch () =
  let net = Accals_circuits.Adders.ripple_carry ~width:3 in
  let r = Exhaustive.compare_networks ~golden:net ~approx:(Network.copy net) () in
  List.iter
    (fun kind -> checkf (Metric.kind_to_string kind) 0.0 (Exhaustive.value r kind))
    [ Metric.Error_rate; Metric.Med; Metric.Nmed; Metric.Mred; Metric.Wce ]

(* Exhaustive reports of three deterministic runs' results, as "%.17g"
   strings: ER, MED, NMED, MRED, WCE. Recorded from the per-vector checker
   that test/exhaustive_ref.ml keeps. *)
let test_golden_reports () =
  List.iter
    (fun (name, metric, bound, vectors, fields) ->
      let net = Accals_circuits.Bench_suite.load name in
      let report = Engine.run net ~metric ~error_bound:bound in
      let r =
        Exhaustive.compare_networks ~golden:net ~approx:report.Engine.approximate ()
      in
      let label = Printf.sprintf "%s %s %g" name (Metric.kind_to_string metric) bound in
      Alcotest.(check int) (label ^ " vectors") vectors r.Exhaustive.vectors;
      Alcotest.(check (list string))
        label fields
        (List.map (Printf.sprintf "%.17g")
           [
             r.Exhaustive.error_rate;
             r.Exhaustive.mean_error_distance;
             r.Exhaustive.normalized_mean_error_distance;
             r.Exhaustive.mean_relative_error_distance;
             r.Exhaustive.worst_case_error;
           ]))
    [
      ( "c880",
        Metric.Error_rate,
        0.03,
        524288,
        [ "0.03143310546875"; "4.15411376953125"; "0.0081293811536815065";
          "0.032875497644102379"; "255" ] );
      ( "mtp8",
        Metric.Nmed,
        0.002,
        65536,
        [ "0.698883056640625"; "135.23583984375"; "0.0020635666413939117";
          "0.020059282602951919"; "1138" ] );
      ( "wal8",
        Metric.Mred,
        0.02,
        65536,
        [ "0.6333465576171875"; "153.099365234375"; "0.002336146566481651";
          "0.020236867184196296"; "1810" ] );
    ]

(* The oracle: every report field equals the per-vector checker's
   (test/exhaustive_ref.ml) bit for bit, for every pool size. *)

module Prng = Accals_bitvec.Prng
module Pool = Accals_runtime.Pool

(* A random circuit over [inputs] inputs (none at all is allowed) whose
   outputs, duplicates included, are drawn from every node, and a copy with
   [mutations] random gates stubbed (a constant or the complement of an
   earlier node) and one output re-pointed per mutation. Distances reach
   2^60 with 60 outputs, so sums pass 2^53 and their order shows. *)
let random_pair ~seed ~inputs ~outputs ~gates ~mutations =
  let rng = Prng.create seed in
  let t = Network.create ~name:"rand" () in
  let nodes = Array.make (inputs + gates + 2) 0 in
  let n = ref 0 in
  let push id =
    nodes.(!n) <- id;
    incr n
  in
  for i = 0 to inputs - 1 do
    push (Network.add_input t (Printf.sprintf "x%d" i))
  done;
  push (Network.add_node t (Gate.Const false) [||]);
  push (Network.add_node t (Gate.Const true) [||]);
  let pick below = nodes.(Prng.int rng below) in
  let ops = [| Gate.And; Gate.Or; Gate.Xor; Gate.Nand; Gate.Nor; Gate.Xnor |] in
  for _ = 1 to gates do
    let below = !n in
    push
      (match Prng.int rng 8 with
       | 0 -> Network.add_node t Gate.Not [| pick below |]
       | 1 -> Network.add_node t Gate.Mux [| pick below; pick below; pick below |]
       | _ -> Network.add_node t ops.(Prng.int rng 6) [| pick below; pick below |])
  done;
  let outs = Array.init outputs (fun i -> (Printf.sprintf "y%d" i, pick !n)) in
  Network.set_outputs t outs;
  let approx = Network.copy t in
  let first_gate = inputs + 2 in
  for _ = 1 to mutations do
    let at = first_gate + Prng.int rng gates in
    (if Prng.int rng 2 = 0 then
       Network.replace approx nodes.(at) (Gate.Const (Prng.int rng 2 = 0)) [||]
     else Network.replace approx nodes.(at) Gate.Not [| pick at |]);
    let o = Prng.int rng outputs in
    outs.(o) <- (fst outs.(o), pick !n)
  done;
  Network.set_outputs approx outs;
  (t, approx)

let report_bits r =
  ( r.Exhaustive.vectors,
    List.map Int64.bits_of_float
      [
        r.Exhaustive.error_rate;
        r.Exhaustive.mean_error_distance;
        r.Exhaustive.normalized_mean_error_distance;
        r.Exhaustive.mean_relative_error_distance;
        r.Exhaustive.worst_case_error;
      ] )

let prop_matches_oracle =
  let gen =
    QCheck2.Gen.(
      tup5 int (int_range 0 16) (int_range 1 60) (int_range 1 80) (int_range 0 3))
  in
  let print (seed, inputs, outputs, gates, mutations) =
    Printf.sprintf "seed %d, %d inputs, %d outputs, %d gates, %d mutations" seed
      inputs outputs gates mutations
  in
  Test_util.qcheck_case ~count:60 ~long_factor:50 ~print
    "reports equal the per-vector oracle" gen
    (fun (seed, inputs, outputs, gates, mutations) ->
      let golden, approx = random_pair ~seed ~inputs ~outputs ~gates ~mutations in
      let expected = report_bits (Exhaustive_ref.compare_gen None ~golden ~approx) in
      report_bits (Exhaustive.compare_networks ~golden ~approx ()) = expected
      && List.for_all
           (fun jobs ->
             Pool.with_pool ~jobs (fun pool ->
                 report_bits (Exhaustive.compare_networks ~pool ~golden ~approx ())
                 = expected))
           [ 2; 4 ])

(* Confidence *)

let test_wilson_basic () =
  let low, high = Confidence.wilson_interval ~errors:0 ~samples:1000 ~confidence:0.95 in
  checkf "zero errors low" 0.0 low;
  check "zero errors high small" true (high < 0.01);
  let low, high = Confidence.wilson_interval ~errors:500 ~samples:1000 ~confidence:0.95 in
  check "centered" true (low < 0.5 && 0.5 < high);
  check "tight" true (high -. low < 0.07)

let test_wilson_monotone_in_samples () =
  let _, h1 = Confidence.wilson_interval ~errors:10 ~samples:100 ~confidence:0.95 in
  let _, h2 = Confidence.wilson_interval ~errors:100 ~samples:1000 ~confidence:0.95 in
  check "more samples, tighter" true (h2 < h1)

let test_wilson_bounds () =
  List.iter
    (fun (errors, samples) ->
      let low, high =
        Confidence.wilson_interval ~errors ~samples ~confidence:0.99
      in
      check "ordered" true (0.0 <= low && low <= high && high <= 1.0))
    [ (0, 10); (10, 10); (3, 17); (1, 2048) ]

let test_samples_for_resolution () =
  let n = Confidence.samples_for_resolution ~error_rate:0.001 ~confidence:0.95 in
  (* Around 3/e ~ 3000. *)
  check "ballpark" true (n > 2000 && n < 4000);
  (* Sanity: detecting 0.03% ER needs ~10k samples - the quantization note
     in EXPERIMENTS.md. *)
  let n2 = Confidence.samples_for_resolution ~error_rate:0.0003 ~confidence:0.95 in
  check "small rates need many samples" true (n2 > 9000)

(* Pareto *)

let test_pareto_sweep_monotone () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let results =
    Pareto.sweep net ~metric:Metric.Error_rate ~bounds:[ 0.001; 0.01; 0.05 ]
  in
  Alcotest.(check int) "three points" 3 (List.length results);
  List.iter
    (fun (bound, r) -> check "bound respected" true (r.Engine.error <= bound))
    results;
  let areas = List.map (fun (_, r) -> r.Engine.area_ratio) results in
  match areas with
  | [ a1; _; a3 ] -> check "looser bound helps" true (a3 <= a1 +. 1e-9)
  | _ -> Alcotest.fail "expected three"

let test_frontier () =
  let pts = [ (0.1, 0.5); (0.05, 0.9); (0.2, 0.4); (0.15, 0.6); (0.0, 1.0) ] in
  let f = Pareto.frontier pts in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "non-dominated, sorted"
    [ (0.0, 1.0); (0.05, 0.9); (0.1, 0.5); (0.2, 0.4) ]
    f

let test_frontier_empty () =
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "empty" [] (Pareto.frontier [])

let suite =
  [
    ( "exhaustive",
      [
        Alcotest.test_case "identical networks" `Quick test_identical_networks;
        Alcotest.test_case "known error" `Quick test_known_error;
        Alcotest.test_case "chunk boundaries" `Quick test_chunking_crosses_boundaries;
        Alcotest.test_case "matches sampled on 8 PIs" `Quick
          test_exhaustive_matches_sampled_estimate;
        Alcotest.test_case "interface mismatch" `Quick test_interface_mismatch;
        Alcotest.test_case "value dispatch" `Quick test_value_dispatch;
        Alcotest.test_case "golden reports" `Quick test_golden_reports;
      ] );
    ("exhaustive oracle", [ prop_matches_oracle ]);
    ( "confidence",
      [
        Alcotest.test_case "wilson basics" `Quick test_wilson_basic;
        Alcotest.test_case "monotone in samples" `Quick test_wilson_monotone_in_samples;
        Alcotest.test_case "interval bounds" `Quick test_wilson_bounds;
        Alcotest.test_case "samples for resolution" `Quick test_samples_for_resolution;
      ] );
    ( "pareto",
      [
        Alcotest.test_case "sweep monotone" `Quick test_pareto_sweep_monotone;
        Alcotest.test_case "frontier" `Quick test_frontier;
        Alcotest.test_case "frontier empty" `Quick test_frontier_empty;
      ] );
  ]
