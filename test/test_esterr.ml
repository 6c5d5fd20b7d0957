open Accals_network
open Accals_lac
module Bitvec = Accals_bitvec.Bitvec
module Metric = Accals_metrics.Metric
module Estimator = Accals_esterr.Estimator
module Evaluate = Accals_esterr.Evaluate
module Criticality = Accals_esterr.Criticality

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let fixture name samples =
  let net = Accals_circuits.Bench_suite.load name in
  let patterns = Sim.for_network ~seed:3 ~count:samples ~exhaustive_limit:12 net in
  let ctx = Round_ctx.create net patterns in
  let golden = Round_ctx.output_sigs ctx in
  (net, patterns, ctx, golden)

let test_base_error_zero () =
  let _, _, ctx, golden = fixture "mtp8" 512 in
  let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
  checkf "unmodified circuit has zero error" 0.0 (Estimator.base_error est)

let test_candidate_signature_wire () =
  let _, _, ctx, golden = fixture "mtp8" 512 in
  let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
  let v = ctx.Round_ctx.order.(Array.length ctx.Round_ctx.order - 1) in
  let target = ctx.Round_ctx.order.(Array.length ctx.Round_ctx.order - 2) in
  let lac = Lac.make ~target (Lac.Wire v) ~area_gain:1.0 in
  let s = Estimator.candidate_signature est lac in
  check "wire signature" true (Bitvec.equal s ctx.Round_ctx.sigs.(v));
  (* Every generated candidate: the estimator's signature is the target's
     signature after actually applying the LAC. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let net, patterns, ctx, golden = fixture name 1024 in
      let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
      List.iter
        (fun lac ->
          (match lac.Lac.kind with
           | Lac.Gate2 (op, _, _) -> Hashtbl.replace seen (2, op) ()
           | Lac.Gate3 (op, _, _, _) -> Hashtbl.replace seen (3, op) ()
           | Lac.Const0 | Lac.Const1 | Lac.Wire _ | Lac.Inv_wire _ | Lac.Sop _ -> ());
          let copy = Network.copy net in
          match Lac.apply copy lac with
          | exception Network.Cycle _ -> ()
          | () ->
            let sigs = Sim.run copy patterns ~order:(Structure.topo_order copy) in
            if
              not
                (Bitvec.equal
                   (Estimator.candidate_signature est lac)
                   sigs.(lac.Lac.target))
            then Alcotest.failf "%s: signature mismatch for %s" name (Lac.describe lac))
        (Candidate_gen.generate ctx Candidate_gen.default_config))
    [ "mtp8"; "c880" ];
  List.iter
    (fun (arity, op) ->
      check
        (Printf.sprintf "%s%d generated" (Gate.to_string op) arity)
        true (Hashtbl.mem seen (arity, op)))
    (List.map (fun op -> (2, op)) Gate.[ And; Or; Xor; Nand; Nor; Xnor ]
    @ List.map (fun op -> (3, op)) Gate.[ And; Or; Xor; Mux ])

(* The central estimator property: for a single LAC, the exact-on-samples
   ΔE equals the measured error change of actually applying the LAC. *)
let delta_matches_actual name metric samples =
  let net, patterns, ctx, golden = fixture name samples in
  let est = Estimator.create ctx ~golden ~metric in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  let scored = Estimator.score est ~shortlist:60 cands in
  List.iter
    (fun lac ->
      let copy = Network.copy net in
      Lac.apply copy lac;
      let actual = Evaluate.actual_error copy patterns ~golden metric in
      let expected = Estimator.base_error est +. lac.Lac.delta_error in
      if abs_float (actual -. expected) > 1e-9 then
        Alcotest.failf "ΔE mismatch for %s: estimated %.6f actual %.6f"
          (Lac.describe lac) expected actual)
    scored

let test_delta_exact_er () = delta_matches_actual "mtp8" Metric.Error_rate 512
let test_delta_exact_nmed () = delta_matches_actual "mtp8" Metric.Nmed 512
let test_delta_exact_mred () = delta_matches_actual "mtp8" Metric.Mred 512
let test_delta_exact_alu () = delta_matches_actual "alu4" Metric.Error_rate 512

let test_score_sorted () =
  let _, _, ctx, golden = fixture "wal8" 512 in
  let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  let scored = Estimator.score est ~shortlist:80 cands in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      a.Lac.delta_error <= b.Lac.delta_error && ascending rest
    | _ -> true
  in
  check "sorted ascending" true (ascending scored);
  check "all scored" true
    (List.for_all (fun l -> not (Float.is_nan l.Lac.delta_error)) scored)

let test_evaluations_counted () =
  let _, _, ctx, golden = fixture "alu4" 512 in
  let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  let _ = Estimator.score est ~shortlist:30 cands in
  check "evaluations recorded" true (Estimator.evaluations est > 0);
  check "bounded by shortlist" true (Estimator.evaluations est <= 30)

let test_estimator_does_not_corrupt_state () =
  (* Repeated exact_delta calls on the same estimator must agree. *)
  let _, _, ctx, golden = fixture "alu4" 512 in
  let est = Estimator.create ctx ~golden ~metric:Metric.Error_rate in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  match cands with
  | first :: second :: _ ->
    let d1 = Estimator.exact_delta est first in
    let _ = Estimator.exact_delta est second in
    let d1' = Estimator.exact_delta est first in
    checkf "repeatable" d1 d1'
  | _ -> Alcotest.fail "expected candidates"

(* Criticality sanity: a PO driver is fully critical; masks are subsets of
   the full pattern set. *)
let test_criticality_po_full () =
  let net, patterns, ctx, _ = fixture "c880" 512 in
  let crit = Criticality.masks ctx in
  Array.iter
    (fun id ->
      Alcotest.(check int)
        "po fully critical" patterns.Sim.count
        (Bitvec.popcount crit.(id)))
    (Network.outputs net)

let test_criticality_buffer_transparent () =
  (* x -> not -> out: the input of the chain is critical everywhere. *)
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let x = Network.add_node t Gate.Not [| a |] in
  let y = Network.add_node t Gate.Not [| x |] in
  Network.set_outputs t [| ("y", y) |];
  let patterns = Sim.exhaustive 1 in
  let ctx = Round_ctx.create t patterns in
  let crit = Criticality.masks ctx in
  Alcotest.(check int) "chain critical" 2 (Bitvec.popcount crit.(x))

let test_criticality_and_gating () =
  (* out = a AND b: a is critical exactly where b = 1. *)
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let o = Network.add_node t Gate.And [| a; b |] in
  Network.set_outputs t [| ("o", o) |];
  let patterns = Sim.exhaustive 2 in
  let ctx = Round_ctx.create t patterns in
  let crit = Criticality.masks ctx in
  check "a critical iff b" true (Bitvec.equal crit.(a) ctx.Round_ctx.sigs.(b))

let test_criticality_mux_select () =
  (* out = sel ? a : b — a is critical where sel=1, b where sel=0. *)
  let t = Network.create () in
  let sel = Network.add_input t "sel" in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let o = Network.add_node t Gate.Mux [| sel; a; b |] in
  Network.set_outputs t [| ("o", o) |];
  let ctx = Round_ctx.create t (Sim.exhaustive 3) in
  let crit = Criticality.masks ctx in
  check "a critical on sel" true (Bitvec.equal crit.(a) ctx.Round_ctx.sigs.(sel));
  check "b critical on ~sel" true
    (Bitvec.equal crit.(b) (Bitvec.lognot ctx.Round_ctx.sigs.(sel)))

let test_actual_error_identity () =
  let net, patterns, _, golden = fixture "cla32" 256 in
  checkf "self error zero" 0.0
    (Evaluate.actual_error net patterns ~golden Metric.Error_rate)

let test_actual_error_detects_change () =
  let net, patterns, _, golden = fixture "cla32" 256 in
  let copy = Network.copy net in
  let out0 = (Network.outputs copy).(0) in
  Network.replace copy out0 (Gate.Const true) [||];
  check "error detected" true
    (Evaluate.actual_error copy patterns ~golden Metric.Error_rate > 0.0)

let suite =
  [
    ( "estimator",
      [
        Alcotest.test_case "base error zero" `Quick test_base_error_zero;
        Alcotest.test_case "wire candidate signature" `Quick test_candidate_signature_wire;
        Alcotest.test_case "ΔE exact under ER" `Quick test_delta_exact_er;
        Alcotest.test_case "ΔE exact under NMED" `Quick test_delta_exact_nmed;
        Alcotest.test_case "ΔE exact under MRED" `Quick test_delta_exact_mred;
        Alcotest.test_case "ΔE exact on alu4" `Quick test_delta_exact_alu;
        Alcotest.test_case "score sorted and complete" `Quick test_score_sorted;
        Alcotest.test_case "evaluation accounting" `Quick test_evaluations_counted;
        Alcotest.test_case "scratch state clean" `Quick test_estimator_does_not_corrupt_state;
      ] );
    ( "criticality",
      [
        Alcotest.test_case "PO fully critical" `Quick test_criticality_po_full;
        Alcotest.test_case "inverter chain transparent" `Quick test_criticality_buffer_transparent;
        Alcotest.test_case "AND gating" `Quick test_criticality_and_gating;
        Alcotest.test_case "MUX select" `Quick test_criticality_mux_select;
      ] );
    ( "evaluate",
      [
        Alcotest.test_case "identity" `Quick test_actual_error_identity;
        Alcotest.test_case "detects change" `Quick test_actual_error_detects_change;
      ] );
  ]
