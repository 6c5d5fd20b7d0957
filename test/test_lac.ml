open Accals_network
open Accals_lac
module Bitvec = Accals_bitvec.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Shared fixture: a loaded small multiplier with its round context. *)
let fixture =
  lazy
    (let net = Accals_circuits.Bench_suite.load "mtp8" in
     let patterns = Sim.for_network ~seed:1 ~count:1024 ~exhaustive_limit:10 net in
     let ctx = Round_ctx.create net patterns in
     (net, patterns, ctx))

let test_kinds_definitions () =
  let l = Lac.make ~target:5 Lac.Const0 ~area_gain:1.0 in
  check "const0 def" true (Lac.new_definition l = (Gate.Const false, [||]));
  let l = Lac.make ~target:5 (Lac.Wire 3) ~area_gain:1.0 in
  check "wire def" true (Lac.new_definition l = (Gate.Buf, [| 3 |]));
  let l = Lac.make ~target:5 (Lac.Inv_wire 3) ~area_gain:1.0 in
  check "inv def" true (Lac.new_definition l = (Gate.Not, [| 3 |]));
  let l = Lac.make ~target:5 (Lac.Gate2 (Gate.Or, 1, 2)) ~area_gain:1.0 in
  check "gate2 def" true (Lac.new_definition l = (Gate.Or, [| 1; 2 |]))

let test_substitute_nodes () =
  check "const sns" true
    (Lac.substitute_nodes (Lac.make ~target:5 Lac.Const1 ~area_gain:1.0) = []);
  check "wire sns" true
    (Lac.substitute_nodes (Lac.make ~target:5 (Lac.Wire 3) ~area_gain:1.0) = [ 3 ]);
  check "pair sns" true
    (Lac.substitute_nodes
       (Lac.make ~target:5 (Lac.Gate2 (Gate.And, 1, 2)) ~area_gain:1.0)
     = [ 1; 2 ])

let test_conflicts_type1 () =
  (* Same TN. *)
  let a = Lac.make ~target:4 (Lac.Wire 2) ~area_gain:1.0 in
  let b = Lac.make ~target:4 (Lac.Gate2 (Gate.And, 1, 3)) ~area_gain:1.0 in
  check "type 1" true (Lac.conflicts a b)

let test_conflicts_type2 () =
  (* SN of one is the TN of the other: the paper's Fig. 2 example. *)
  let a = Lac.make ~target:3 (Lac.Wire 1) ~area_gain:1.0 in
  let b = Lac.make ~target:4 (Lac.Gate2 (Gate.And, 1, 3)) ~area_gain:1.0 in
  check "type 2" true (Lac.conflicts a b);
  check "symmetric" true (Lac.conflicts b a)

let test_no_conflict () =
  let a = Lac.make ~target:3 (Lac.Wire 1) ~area_gain:1.0 in
  let b = Lac.make ~target:6 (Lac.Wire 5) ~area_gain:1.0 in
  check "independent lacs" false (Lac.conflicts a b)

let test_paper_example_conflicts () =
  (* Fig. 2 / Example 3: 6 LACs, expected selected set {T1, T3, T5, T6}
     given ascending weights in index order. *)
  let mk target kind delta =
    Lac.with_delta (Lac.make ~target kind ~area_gain:1.0) delta
  in
  let t1 = mk 3 (Lac.Wire 1) 0.01 in
  let t2 = mk 4 (Lac.Gate2 (Gate.And, 1, 3)) 0.02 in
  let t3 = mk 4 (Lac.Wire 2) 0.03 in
  let t4 = mk 5 (Lac.Gate2 (Gate.And, 3, 4)) 0.04 in
  let t5 = mk 6 (Lac.Wire 5) 0.05 in
  let t6 = mk 7 (Lac.Gate2 (Gate.And, 8, 9)) 0.06 in
  let sol, targets =
    Accals.Conflict_graph.find_and_solve [ t1; t2; t3; t4; t5; t6 ]
  in
  check_int "solution size" 4 (List.length sol);
  Alcotest.(check (list int)) "targets" [ 3; 4; 6; 7 ] (List.sort compare targets)

(* FindSolveLACConf as first written: the explicit conflict graph (one
   vertex per LAC, an edge per conflicting pair) and the ascending-ΔE
   greedy over it.  [Conflict_graph.find_and_solve] keeps the graph
   implicit and must select exactly the same LACs. *)
let conflict_graph_oracle lacs =
  let module Graph = Accals_mis.Graph in
  let arr = Array.of_list lacs in
  let n = Array.length arr in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Lac.conflicts arr.(i) arr.(j) then Graph.add_edge g i j
    done
  done;
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare arr.(a).Lac.delta_error arr.(b).Lac.delta_error with
      | 0 -> compare a b
      | c -> c)
    order;
  let selected = Array.make n false in
  Array.iter
    (fun i ->
      if not (List.exists (fun j -> selected.(j)) (Graph.neighbors g i)) then
        selected.(i) <- true)
    order;
  let kept = List.filteri (fun i _ -> selected.(i)) lacs in
  (kept, List.map (fun l -> l.Lac.target) kept)

(* Random L_top lists over a dozen nodes, so targets and SNs collide
   often: every LAC kind (SOPs with up to four leaves, repeated leaves
   included), ΔE from four values so ties are common, and duplicated
   LACs. *)
let gen_l_top =
  let open QCheck2.Gen in
  let node = int_range 0 11 in
  let kind =
    oneof
      [
        oneofl [ Lac.Const0; Lac.Const1 ];
        map (fun v -> Lac.Wire v) node;
        map (fun v -> Lac.Inv_wire v) node;
        map2 (fun a b -> Lac.Gate2 (Gate.And, a, b)) node node;
        map3 (fun a b c -> Lac.Gate3 (Gate.Mux, a, b, c)) node node node;
        map
          (fun leaves -> Lac.Sop { leaves = Array.of_list leaves; cubes = [] })
          (list_size (int_range 1 4) node);
      ]
  in
  let lac =
    map3
      (fun target kind d ->
        Lac.with_delta (Lac.make ~target kind ~area_gain:1.0)
          (float_of_int d /. 100.0))
      node kind (int_range 0 3)
  in
  let* lacs = list_size (int_range 0 30) lac in
  let* picks = list_size (int_range 0 6) (int_range 0 1000) in
  let dups =
    if lacs = [] then []
    else List.map (fun k -> List.nth lacs (k mod List.length lacs)) picks
  in
  shuffle_l (lacs @ dups)

let test_conflict_selection_oracle =
  Test_util.qcheck_case ~count:500 "implicit graph selects as the explicit one"
    gen_l_top (fun lacs ->
      Accals.Conflict_graph.find_and_solve lacs = conflict_graph_oracle lacs)

let test_apply_cycle_guard () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let x = Network.add_node t Gate.Not [| a |] in
  let y = Network.add_node t Gate.Not [| x |] in
  Network.set_outputs t [| ("y", y) |];
  (* y <- Buf x is fine; x <- Buf y closes a cycle. *)
  let bad = Lac.make ~target:x (Lac.Wire y) ~area_gain:1.0 in
  check "cycle rejected" true
    (try Lac.apply t bad; false with Network.Cycle _ -> true)

let test_apply_many_skips_cycles () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let x = Network.add_node t Gate.Not [| a |] in
  let y = Network.add_node t Gate.Not [| x |] in
  let z = Network.add_node t Gate.And [| x; y |] in
  Network.set_outputs t [| ("z", z) |];
  (* First LAC rewires y <- wire(a); second then tries x <- wire(y):
     after the first, y no longer depends on x, so both succeed. But
     x <- wire(z) must always be skipped. *)
  let l1 = Lac.make ~target:y (Lac.Wire a) ~area_gain:1.0 in
  let l2 = Lac.make ~target:x (Lac.Wire z) ~area_gain:1.0 in
  let applied, skipped = Lac.apply_many t [ l1; l2 ] in
  check_int "applied" 1 (List.length applied);
  check_int "skipped" 1 (List.length skipped);
  Network.validate t

let test_candidate_positive_gain () =
  let _, _, ctx = Lazy.force fixture in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  check "nonempty" true (cands <> []);
  List.iter
    (fun lac -> check "positive gain" true (lac.Lac.area_gain > 0.0))
    cands

let test_candidate_targets_live_gates () =
  let net, _, ctx = Lazy.force fixture in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  List.iter
    (fun lac ->
      check "live" true ctx.Round_ctx.live.(lac.Lac.target);
      check "not an input" true (not (Network.is_input net lac.Lac.target)))
    cands

let test_candidates_acyclic_individually () =
  let net, _, ctx = Lazy.force fixture in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  (* Every candidate must be applicable in isolation. *)
  List.iter
    (fun lac ->
      let copy = Network.copy net in
      Lac.apply copy lac;
      Network.validate copy)
    cands

let test_candidate_gain_is_real () =
  (* Applying a single LAC then sweeping reduces area by at least ~the
     advertised gain (sweep can find more). *)
  let net, _, ctx = Lazy.force fixture in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  let area0 = Cost.area net in
  let rec take n = function
    | [] -> []
    | x :: r -> if n = 0 then [] else x :: take (n - 1) r
  in
  List.iter
    (fun lac ->
      let copy = Network.copy net in
      Lac.apply copy lac;
      Cleanup.sweep copy;
      let saved = area0 -. Cost.area copy in
      if saved +. 1e-6 < lac.Lac.area_gain then
        Alcotest.failf "gain overstated for %s: claimed %.1f, got %.1f"
          (Lac.describe lac) lac.Lac.area_gain saved)
    (take 100 cands)

let test_apply_preserves_validity () =
  let net, _, ctx = Lazy.force fixture in
  let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
  let copy = Network.copy net in
  let sorted =
    List.sort (fun a b -> compare a.Lac.target b.Lac.target) cands
  in
  (* Apply a spread of non-conflicting LACs. *)
  let chosen, _ =
    List.fold_left
      (fun (acc, seen) lac ->
        let sns = Lac.substitute_nodes lac in
        let clash =
          List.mem lac.Lac.target seen
          || List.exists (fun s -> List.mem s seen) sns
        in
        if clash then (acc, seen) else (lac :: acc, (lac.Lac.target :: sns) @ seen))
      ([], []) sorted
  in
  let _, _ = Lac.apply_many copy (List.rev chosen) in
  Network.validate copy

let test_describe () =
  let l =
    Lac.with_delta
      (Lac.make ~target:7 (Lac.Gate2 (Gate.Or, 2, 3)) ~area_gain:3.0)
      0.5
  in
  check "mentions target" true
    (let s = Lac.describe l in
     String.length s > 0
     &&
     let contains needle =
       let n = String.length needle and h = String.length s in
       let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
       go 0
     in
     contains "7" && contains "or2")

let test_round_ctx_consistency () =
  let net, patterns, ctx = Lazy.force fixture in
  check_int "order covers live nodes"
    (Array.length ctx.Round_ctx.order)
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ctx.Round_ctx.live);
  (* Signatures of outputs match a fresh evaluation. *)
  let fresh = Accals_esterr.Evaluate.output_signatures net patterns in
  Array.iteri
    (fun i bv -> check "output sig" true (Bitvec.equal bv fresh.(i)))
    (Round_ctx.output_sigs ctx)

(* Round-0 candidate lists of the er-suite circuits under the engine's
   default patterns (seed 1, 2048 samples), pinned by length and by the
   MD5 of their structure ([Marshal] without sharing). Any change to
   candidate generation that alters a single LAC, its order or its gain
   shows here. *)
let golden_candidates =
  [
    ("alu4", 1009, "543c425ef316e6be54201753a9cf2cf6");
    ("c880", 1890, "599b2deb3e9f80e45f1ea43496f312d9");
    ("c1908", 1650, "8f3ff073e87feb9fe23b7f12378f987e");
    ("c3540", 2480, "bf230f7e5a39cbd68772d48b287fbf23");
    ("cla32", 3817, "a1ba658855d3d1af747571983733a032");
    ("ksa32", 6356, "01229d45e7bb378e70e72dfebe267265");
    ("mtp8", 4293, "11b33c057f11e794024b9214b4bb53b2");
    ("wal8", 4186, "fdb00fd4f97469de73b0378a38bcf264");
    ("sqrt", 11435, "7d7edd05c5dc92dcd385cd7c15498c0e");
    ("sin", 6211, "eb68c8729a406c3b7065d487bfccc9aa");
    ("log2", 4132, "e6afaed5bd74881a01a2801dc3b330a6");
    ("apex6", 4247, "b2e2dbe03143d3871e004d6964061e89");
    ("frg2", 5180, "1bcbdd8fff7a27794e1b8368a0ae8c5c");
  ]

let test_golden_candidates () =
  List.iter
    (fun (name, length, digest) ->
      let net = Accals_circuits.Bench_suite.load name in
      let patterns = Sim.for_network ~seed:1 ~count:2048 ~exhaustive_limit:14 net in
      let ctx = Round_ctx.create net patterns in
      let cands = Candidate_gen.generate ctx Candidate_gen.default_config in
      check_int (name ^ " candidate count") length (List.length cands);
      Alcotest.(check string)
        (name ^ " candidate digest") digest
        (Digest.to_hex (Digest.string (Marshal.to_string cands [ Marshal.No_sharing ]))))
    golden_candidates

(* The float product tree that [Candidate_gen.minterm_counts] replaced:
   level [i] of a depth-first tree ANDs in leaf [i]'s literal, and each
   leaf of the tree is one minterm's sampled probability. *)
let minterm_probabilities (ctx : Round_ctx.t) leaves =
  let samples = ctx.patterns.Sim.count in
  let vars = Array.length leaves in
  let negated = Array.map (fun leaf -> Bitvec.lognot ctx.sigs.(leaf)) leaves in
  let products = Array.init vars (fun _ -> Bitvec.create samples) in
  let probs = Array.make (1 lsl vars) 0.0 in
  let rec expand i m prefix =
    if i = vars then
      probs.(m) <- float_of_int (Bitvec.popcount prefix) /. float_of_int samples
    else begin
      let branch literal bit =
        let product =
          if i = 0 then literal
          else begin
            Bitvec.logand_into prefix literal ~dst:products.(i);
            products.(i)
          end
        in
        expand (i + 1) (m lor (bit lsl i)) product
      in
      branch negated.(i) 0;
      branch ctx.sigs.(leaves.(i)) 1
    end
  in
  (* Level 0 takes the literal itself; its [prefix] is never read. *)
  expand 0 0 (Bitvec.create samples);
  probs

(* The integer counts divide to the oracle's probabilities exactly, and
   sorting them orders the minterms as sorting the probabilities did, ties
   included: the SOP generator's don't-care choice is unchanged. Cuts of up
   to [Truth.max_vars] leaves, on sampled (2,048 and 1,000) and exhaustive
   patterns. *)
let test_minterm_counts_oracle () =
  let module Truth = Accals_twolevel.Truth in
  List.iter
    (fun (name, count, exhaustive_limit) ->
      let net = Accals_circuits.Bench_suite.load name in
      let ctx =
        Round_ctx.create net (Sim.for_network ~seed:3 ~count ~exhaustive_limit net)
      in
      let samples = ctx.patterns.Sim.count in
      let products = Array.init Truth.max_vars (fun _ -> Bitvec.create samples) in
      let cuts =
        Accals_twolevel.Cut_enum.enumerate net ~order:ctx.order ~k:Truth.max_vars
          ~per_node:6
      in
      Array.iter
        (List.iter (fun leaves ->
             if Array.length leaves >= 2 then begin
               let counts = Candidate_gen.minterm_counts ~products ctx leaves in
               let probs = minterm_probabilities ctx leaves in
               let rows = Array.length probs in
               check (name ^ " counts divide to probabilities") true
                 (Array.map (fun c -> float_of_int c /. float_of_int samples) counts
                 = probs);
               let order cmp =
                 let idx = Array.init rows Fun.id in
                 Array.sort cmp idx;
                 idx
               in
               check (name ^ " minterm order") true
                 (order (fun a b -> Int.compare counts.(a) counts.(b))
                 = order (fun a b -> compare probs.(a) probs.(b)))
             end))
        cuts)
    [ ("c880", 2048, 14); ("frg2", 1000, 14); ("mtp8", 2048, 16) ]

(* The SOP generator's monomorphic minterm sort against [Array.sort] with
   the comparator it replaced: cuts of 2, 3 and 4 leaves, counts drawn from
   at most three values so that most comparisons tie, from any start. *)
let prop_sort_by_count =
  Test_util.qcheck_case ~count:1000 "sort_by_count orders ties like Array.sort"
    QCheck2.Gen.(
      oneofl [ 4; 8; 16 ] >>= fun rows ->
      triple
        (array_size (return rows) (int_bound 2))
        (array_size (return 3) (int_bound 2048))
        (shuffle_a (Array.init rows Fun.id)))
    (fun (choice, values, start) ->
      let counts = Array.map (fun c -> values.(c)) choice in
      let expected = Array.copy start and got = Array.copy start in
      Array.sort (fun a b -> Int.compare counts.(a) counts.(b)) expected;
      Candidate_gen.sort_by_count counts got;
      got = expected)

let suite =
  [
    ( "lac",
      [
        Alcotest.test_case "kind definitions" `Quick test_kinds_definitions;
        prop_sort_by_count;
        Alcotest.test_case "substitute nodes" `Quick test_substitute_nodes;
        Alcotest.test_case "type-1 conflict" `Quick test_conflicts_type1;
        Alcotest.test_case "type-2 conflict" `Quick test_conflicts_type2;
        Alcotest.test_case "no conflict" `Quick test_no_conflict;
        Alcotest.test_case "paper example 3/4" `Quick test_paper_example_conflicts;
        test_conflict_selection_oracle;
        Alcotest.test_case "apply cycle guard" `Quick test_apply_cycle_guard;
        Alcotest.test_case "apply_many skips cycles" `Quick test_apply_many_skips_cycles;
        Alcotest.test_case "describe" `Quick test_describe;
      ] );
    ( "candidate generation",
      [
        Alcotest.test_case "positive gains" `Quick test_candidate_positive_gain;
        Alcotest.test_case "targets live gates" `Quick test_candidate_targets_live_gates;
        Alcotest.test_case "individually applicable" `Slow test_candidates_acyclic_individually;
        Alcotest.test_case "gains not overstated" `Slow test_candidate_gain_is_real;
        Alcotest.test_case "bulk apply stays valid" `Quick test_apply_preserves_validity;
        Alcotest.test_case "round context consistency" `Quick test_round_ctx_consistency;
        Alcotest.test_case "golden er-suite candidates" `Quick test_golden_candidates;
        Alcotest.test_case "minterm counts match the product tree" `Quick
          test_minterm_counts_oracle;
      ] );
  ]
