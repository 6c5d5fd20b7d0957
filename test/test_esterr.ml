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

(* Differential oracle: the per-candidate cone walk the estimator used
   before flip responses. It resimulates the target's fanout cone with the
   candidate's signature substituted and measures the outputs with the
   per-metric folds of [Test_metrics.Oracle]. *)
let oracle_delta est (ctx : Round_ctx.t) ~golden metric lac =
  let net = ctx.net and sigs = ctx.sigs in
  let target = lac.Lac.target in
  let cand = Estimator.candidate_signature est lac in
  if Bitvec.equal cand sigs.(target) then 0.0
  else begin
    let overlay = Hashtbl.create 64 in
    Hashtbl.replace overlay target cand;
    let lookup id =
      match Hashtbl.find_opt overlay id with Some s -> s | None -> sigs.(id)
    in
    Array.iter
      (fun id ->
        if Array.exists (Hashtbl.mem overlay) (Network.fanins net id) then begin
          let dst = Bitvec.create ctx.patterns.Sim.count in
          Sim.eval_node_into net ~lookup id ~dst;
          if not (Bitvec.equal dst sigs.(id)) then Hashtbl.replace overlay id dst
        end)
      (Structure.tfo_list ~fanouts:ctx.fanouts ~order:ctx.order ~topo_pos:ctx.topo_pos
         target);
    Test_metrics.Oracle.measure metric ~golden
      ~approx:(Array.map lookup (Network.outputs net))
    -. Estimator.base_error est
  end

(* Every shortlisted ΔE, sequential and on a 3-domain pool, has the
   oracle's exact bits. *)
let test_flip_response_matches_oracle () =
  List.iter
    (fun name ->
      let _, _, ctx, golden = fixture name 1024 in
      let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
      List.iter
        (fun metric ->
          let est = Estimator.create ctx ~golden ~metric in
          let check_scored how scored =
            Alcotest.(check int) "shortlist size" (min 120 (List.length cands))
              (List.length scored);
            List.iter
              (fun lac ->
                let expected = oracle_delta est ctx ~golden metric lac in
                if
                  Int64.bits_of_float lac.Lac.delta_error
                  <> Int64.bits_of_float expected
                then
                  Alcotest.failf "%s %s %s: %s ΔE %h, oracle %h" name
                    (Metric.kind_to_string metric) how (Lac.describe lac)
                    lac.Lac.delta_error expected)
              scored
          in
          check_scored "sequential" (Estimator.score est ~shortlist:120 cands);
          check_scored "pool"
            (Accals_runtime.Pool.with_pool ~jobs:3 (fun pool ->
                 Estimator.score ~pool est ~shortlist:120 cands)))
        Metric.[ Error_rate; Nmed; Mred; Med; Wce ])
    [ "mtp8"; "c880"; "sqrt" ]

(* The streaming round path (generators into the ranker, then the exact
   pass) reproduces the list path: same LACs in the same order with the
   same ΔE bits, and a count of every emitted LAC. Checked on the
   original circuit and, so the error-free mask matters, after committing
   one error-increasing LAC; sequentially and on a 3-domain pool. *)
let test_stream_matches_list () =
  let key (l : Lac.t) =
    ( l.Lac.target,
      l.Lac.kind,
      Int64.bits_of_float l.Lac.area_gain,
      Int64.bits_of_float l.Lac.delta_error )
  in
  let config = Candidate_gen.default_config in
  let compare_round what ctx ~golden metric =
    let est () = Estimator.create ctx ~golden ~metric in
    let cands = Candidate_gen.generate ctx config in
    let expected = Estimator.score (est ()) ~shortlist:300 cands in
    let streamed ?pool () =
      let est = est () in
      let shortlisted =
        Estimator.shortlist est ~k:300 (Candidate_gen.iter ?pool ctx config)
      in
      Alcotest.(check int) (what ^ " count") (List.length cands)
        shortlisted.Estimator.seen;
      Estimator.evaluate ?pool est shortlisted
    in
    check (what ^ " sequential") true
      (List.map key (streamed ()) = List.map key expected);
    check (what ^ " pool") true
      (Accals_runtime.Pool.with_pool ~jobs:3 (fun pool ->
           List.map key (streamed ~pool ()) = List.map key expected));
    expected
  in
  List.iter
    (fun (name, metric) ->
      let net, patterns, ctx, golden = fixture name 1024 in
      let what = name ^ " " ^ Metric.kind_to_string metric in
      let scored = compare_round what ctx ~golden metric in
      match List.find_opt (fun l -> l.Lac.delta_error > 0.0) scored with
      | None -> ()
      | Some lac ->
        let copy = Network.copy net in
        Lac.apply copy lac;
        compare_round (what ^ " after a commit")
          (Round_ctx.create copy patterns) ~golden metric
        |> ignore)
    (List.map
       (fun name -> (name, Metric.Error_rate))
       [ "alu4"; "c880"; "c1908"; "c3540"; "cla32"; "ksa32"; "mtp8"; "wal8";
         "sqrt"; "sin"; "log2"; "apex6"; "frg2" ]
    @ [ ("mtp8", Metric.Nmed); ("sqrt", Metric.Nmed) ])

(* Stream-fed bounded selection is the stable sort by (rank, descending
   gain) truncated to k. Ranks and gains come from small ranges, so equal
   keys are common and the emission-order tie-break decides; k runs from 0
   past the stream's length. *)
let prop_top_k_smallest =
  Test_util.qcheck_case ~count:300 "top-k equals sort-then-take"
    QCheck2.Gen.(
      pair (int_range 0 40)
        (list_size (int_range 0 200) (pair (int_range 0 6) (int_range 0 3))))
    (fun (k, keys) ->
      let items =
        List.mapi (fun i (r, g) -> (float_of_int r /. 4.0, float_of_int g, i)) keys
      in
      let top = Accals_esterr.Top_k.create ~k in
      List.iter (fun (rank, gain, i) -> Accals_esterr.Top_k.push top ~rank ~gain i) items;
      let expected =
        List.stable_sort
          (fun (ra, ga, _) (rb, gb, _) ->
            match Float.compare ra rb with 0 -> Float.compare gb ga | c -> c)
          items
        |> List.filteri (fun i _ -> i < k)
        |> List.map (fun (r, _, i) -> (r, i))
      in
      Accals_esterr.Top_k.pushed top = List.length items
      && Array.to_list (Accals_esterr.Top_k.sorted top) = expected)

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

(* Differential oracle: the push-form sweep [Criticality.masks] ran before
   the pull form became the only one. Walking the live nodes in reverse
   topological order, each node ORs its mask, sensitised by each edge, into
   the fanin's. The edge sensitivity is the Boolean difference by
   definition: the gate evaluated with that one fanin position complemented,
   XORed with the gate as it is. *)
let oracle_edge_sensitivity net sigs id which ~dst =
  let fis = Network.fanins net id in
  let inputs = Array.map (fun f -> sigs.(f)) fis in
  let positions = Array.init (Array.length fis) Fun.id in
  let eval ~dst =
    Sim.eval_op_into (Network.op net id) ~lookup:(Array.get inputs) positions ~dst
  in
  let unchanged = Bitvec.create (Bitvec.length dst) in
  eval ~dst:unchanged;
  inputs.(which) <- Bitvec.lognot inputs.(which);
  eval ~dst;
  Bitvec.logxor_into dst unchanged ~dst

let oracle_masks (ctx : Round_ctx.t) =
  let net = ctx.net in
  let samples = ctx.patterns.Sim.count in
  let crit = Array.make (Network.num_nodes net) (Bitvec.create 0) in
  Array.iter (fun id -> crit.(id) <- Bitvec.create samples) ctx.order;
  Array.iter
    (fun id -> if Bitvec.length crit.(id) > 0 then Bitvec.fill crit.(id) true)
    (Network.outputs net);
  let sens = Bitvec.create samples in
  for i = Array.length ctx.order - 1 downto 0 do
    let id = ctx.order.(i) in
    Array.iteri
      (fun which f ->
        if Bitvec.length crit.(f) > 0 then begin
          oracle_edge_sensitivity net ctx.sigs id which ~dst:sens;
          Bitvec.logand_into sens crit.(id) ~dst:sens;
          Bitvec.logor_into crit.(f) sens ~dst:crit.(f)
        end)
      (Network.fanins net id)
  done;
  crit

let check_masks_match_oracle label ctx =
  let expected = oracle_masks ctx in
  Array.iteri
    (fun id mask ->
      if not (Bitvec.equal mask expected.(id)) then
        Alcotest.failf "%s: node %d criticality differs from the push oracle"
          label id)
    (Criticality.masks ctx)

(* A 3- and a 4-input NOR and a 3-input OR over shared inputs, all
   observable at an output: every fanin position of a wide NOR and OR gets
   its own edge sensitivity. Random_logic emits only 2-input ones. *)
let wide_nor_net () =
  let t = Network.create () in
  let ins = Array.init 5 (fun i -> Network.add_input t (Printf.sprintf "i%d" i)) in
  let nor3 = Network.add_node t Gate.Nor [| ins.(0); ins.(1); ins.(2) |] in
  let nor4 = Network.add_node t Gate.Nor [| ins.(1); ins.(2); ins.(3); ins.(4) |] in
  let or3 = Network.add_node t Gate.Or [| nor3; ins.(3); ins.(0) |] in
  let x = Network.add_node t Gate.Xor [| nor4; or3 |] in
  Network.set_outputs t [| ("x", x); ("n3", nor3) |];
  t

let test_criticality_matches_push_oracle () =
  List.iter
    (fun name ->
      let _, _, ctx, _ = fixture name 512 in
      check_masks_match_oracle name ctx)
    [ "alu4"; "c880"; "c1908"; "c3540"; "cla32"; "ksa32"; "mtp8"; "wal8";
      "sqrt"; "sin"; "log2"; "apex6"; "frg2" ];
  List.iter
    (fun seed ->
      let net =
        Accals_circuits.Random_logic.make ~name:"crit" ~inputs:10 ~outputs:6
          ~gates:200 ~seed
      in
      let patterns = Sim.for_network ~seed ~count:512 ~exhaustive_limit:0 net in
      check_masks_match_oracle (Printf.sprintf "random seed %d" seed)
        (Round_ctx.create net patterns))
    [ 1; 2; 3; 4; 5; 6 ];
  check_masks_match_oracle "3- and 4-input NOR"
    (Round_ctx.create (wide_nor_net ()) (Sim.exhaustive 5))

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
        Alcotest.test_case "flip response matches cone-walk oracle" `Quick
          test_flip_response_matches_oracle;
        Alcotest.test_case "stream matches list" `Quick test_stream_matches_list;
        prop_top_k_smallest;
      ] );
    ( "criticality",
      [
        Alcotest.test_case "PO fully critical" `Quick test_criticality_po_full;
        Alcotest.test_case "inverter chain transparent" `Quick test_criticality_buffer_transparent;
        Alcotest.test_case "AND gating" `Quick test_criticality_and_gating;
        Alcotest.test_case "MUX select" `Quick test_criticality_mux_select;
        Alcotest.test_case "pull sweep matches push oracle" `Quick
          test_criticality_matches_push_oracle;
      ] );
    ( "evaluate",
      [
        Alcotest.test_case "identity" `Quick test_actual_error_identity;
        Alcotest.test_case "detects change" `Quick test_actual_error_detects_change;
      ] );
  ]
