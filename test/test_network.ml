open Accals_network
open Accals_circuits
module Bitvec = Accals_bitvec.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small reference circuit: f = (a AND b) XOR c, g = NOT (a OR c). *)
let small_net () =
  let t = Network.create ~name:"small" () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let c = Network.add_input t "c" in
  let ab = Network.add_node t Gate.And [| a; b |] in
  let f = Network.add_node t Gate.Xor [| ab; c |] in
  let aoc = Network.add_node t Gate.Or [| a; c |] in
  let g = Network.add_node t Gate.Not [| aoc |] in
  Network.set_outputs t [| ("f", f); ("g", g) |];
  (t, a, b, c, ab, f, aoc, g)

let test_eval () =
  let t, _, _, _, _, _, _, _ = small_net () in
  let cases =
    [
      ([| false; false; false |], [| false; true |]);
      ([| true; true; false |], [| true; false |]);
      ([| true; true; true |], [| false; false |]);
      ([| false; false; true |], [| true; false |]);
    ]
  in
  List.iter
    (fun (ins, outs) ->
      Alcotest.(check (array bool)) "eval" outs (Network.eval t ins))
    cases

let test_gate_eval_ops () =
  let open Gate in
  check "and" true (eval And [| true; true; true |]);
  check "and f" false (eval And [| true; false |]);
  check "nand" true (eval Nand [| true; false |]);
  check "or" true (eval Or [| false; true |]);
  check "nor" true (eval Nor [| false; false |]);
  check "xor odd" true (eval Xor [| true; true; true |]);
  check "xor even" false (eval Xor [| true; true |]);
  check "xnor" true (eval Xnor [| true; true |]);
  check "mux sel" true (eval Mux [| true; true; false |]);
  check "mux unsel" false (eval Mux [| false; true; false |]);
  check "not" false (eval Not [| true |]);
  check "buf" true (eval Buf [| true |]);
  check "const" true (eval (Const true) [||])

let test_gate_arity_violation () =
  Alcotest.check_raises "bad arity" (Invalid_argument "Gate.eval: arity violation")
    (fun () -> ignore (Gate.eval Gate.Not [| true; false |]))

let test_replace_cycle_detected () =
  let t, _, _, _, ab, f, _, _ = small_net () in
  (* Making ab depend on f closes a cycle. *)
  check "raises" true
    (try
       Network.replace t ab Gate.And [| f; f |];
       false
     with Network.Cycle _ -> true)

let test_replace_semantics () =
  let t, a, _, c, _, f, _, _ = small_net () in
  (* Replace f with Buf a: output f now follows a. *)
  Network.replace t f Gate.Buf [| a |];
  let outs = Network.eval t [| true; false; true |] in
  check "f = a" true outs.(0);
  ignore c

let test_replace_input_rejected () =
  let t, a, _, _, _, _, _, _ = small_net () in
  check "reject input replace" true
    (try
       Network.replace t a (Gate.Const true) [||];
       false
     with Invalid_argument _ -> true)

let test_reaches () =
  let t, a, _, _, ab, f, _, g = small_net () in
  check "a reaches f" true (Network.reaches t ~src:a ~dst:f);
  check "ab reaches f" true (Network.reaches t ~src:ab ~dst:f);
  check "f does not reach g" false (Network.reaches t ~src:f ~dst:g);
  check "self" true (Network.reaches t ~src:f ~dst:f)

let test_copy_independent () =
  let t, _, _, _, _, f, _, _ = small_net () in
  let t2 = Network.copy t in
  Network.replace t2 f (Gate.Const true) [||];
  let outs = Network.eval t [| false; false; false |] in
  check "original unchanged" false outs.(0)

let test_validate_ok () =
  let t, _, _, _, _, _, _, _ = small_net () in
  Network.validate t

let test_topo_order () =
  let t, _, _, _, _, _, _, _ = small_net () in
  let order = Structure.topo_order t in
  let pos = Array.make (Network.num_nodes t) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Array.iter
    (fun id ->
      Array.iter
        (fun fanin ->
          check "fanin before node" true (pos.(fanin) >= 0 && pos.(fanin) < pos.(id)))
        (Network.fanins t id))
    order

let test_live_set () =
  let t, _, _, _, _, f, _, _ = small_net () in
  (* Add a dangling node: not live. *)
  let d = Network.add_node t Gate.Not [| f |] in
  let live = Structure.live_set t in
  check "dangling dead" false live.(d);
  check "output live" true live.(f)

let test_levels () =
  let t, a, _, _, ab, f, _, _ = small_net () in
  let lvl = Structure.levels t in
  check_int "input level" 0 lvl.(a);
  check_int "ab level" 1 lvl.(ab);
  check_int "f level" 2 lvl.(f)

let test_fanouts () =
  let t, a, _, _, ab, _, aoc, _ = small_net () in
  let fo = Structure.fanouts t in
  let a_fanouts = Array.to_list fo.(a) in
  check "a feeds ab" true (List.mem ab a_fanouts);
  check "a feeds aoc" true (List.mem aoc a_fanouts)

let test_tfo () =
  let t, a, _, _, ab, f, aoc, g = small_net () in
  let fo = Structure.fanouts t in
  let tfo = Structure.tfo_set t ~fanouts:fo a in
  List.iter (fun id -> check "tfo member" true (Bitvec.get tfo id)) [ a; ab; f; aoc; g ]

let test_shortest_path () =
  let t, a, _, _, _, f, _, _ = small_net () in
  let fo = Structure.fanouts t in
  Alcotest.(check (option int)) "a to f" (Some 2)
    (Structure.shortest_path_bounded t ~fanouts:fo ~src:a ~dst:f ~limit:10);
  Alcotest.(check (option int)) "bounded out" None
    (Structure.shortest_path_bounded t ~fanouts:fo ~src:a ~dst:f ~limit:1)

let test_mffc () =
  let t, _, _, _, ab, f, _, _ = small_net () in
  let live = Structure.live_set t in
  let counts = Structure.fanout_counts t ~live in
  let m = Mffc.nodes (Mffc.cone (Mffc.create t ~live ~fanout_counts:counts) f) in
  (* ab only feeds f, so it is inside f's MFFC. *)
  check "f in own mffc" true (List.mem f m);
  check "ab in f's mffc" true (List.mem ab m)

let test_mffc_shared_node_excluded () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let shared = Network.add_node t Gate.And [| a; b |] in
  let x = Network.add_node t Gate.Not [| shared |] in
  let y = Network.add_node t Gate.Buf [| shared |] in
  Network.set_outputs t [| ("x", x); ("y", y) |];
  let live = Structure.live_set t in
  let counts = Structure.fanout_counts t ~live in
  let m = Mffc.nodes (Mffc.cone (Mffc.create t ~live ~fanout_counts:counts) x) in
  check "shared not in mffc" false (List.mem shared m)

(* Cleanup tests *)

let test_cleanup_const_prop () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let zero = Network.add_node t (Gate.Const false) [||] in
  let an = Network.add_node t Gate.And [| a; zero |] in
  let f = Network.add_node t Gate.Or [| an; a |] in
  Network.set_outputs t [| ("f", f) |];
  Cleanup.sweep t;
  (* f = (a AND 0) OR a = a *)
  let outs = Network.eval t [| true |] in
  check "still a" true outs.(0);
  let outs = Network.eval t [| false |] in
  check "still a (0)" false outs.(0)

let test_cleanup_buffer_chain () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b1 = Network.add_node t Gate.Buf [| a |] in
  let b2 = Network.add_node t Gate.Buf [| b1 |] in
  let b3 = Network.add_node t Gate.Buf [| b2 |] in
  Network.set_outputs t [| ("f", b3) |];
  Cleanup.sweep t;
  Alcotest.(check int) "output driver resolved" a (Network.outputs t).(0)

let test_cleanup_double_negation () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let n1 = Network.add_node t Gate.Not [| a |] in
  let n2 = Network.add_node t Gate.Not [| n1 |] in
  let f = Network.add_node t Gate.And [| n2; a |] in
  Network.set_outputs t [| ("f", f) |];
  Cleanup.sweep t;
  check "f follows a" true (Network.eval t [| true |]).(0);
  check "f follows a (0)" false (Network.eval t [| false |]).(0)

let test_cleanup_complement_pair () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let na = Network.add_node t Gate.Not [| a |] in
  let f = Network.add_node t Gate.And [| a; na |] in
  Network.set_outputs t [| ("f", f) |];
  Cleanup.sweep t;
  check "a and ~a is 0" false (Network.eval t [| true |]).(0);
  check "a and ~a is 0 (2)" false (Network.eval t [| false |]).(0);
  Alcotest.(check string) "became const0" "const0"
    (Gate.to_string (Network.op t (Network.outputs t).(0)))

let test_cleanup_xor_pairs () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let x = Network.add_node t Gate.Xor [| a; a; b |] in
  Network.set_outputs t [| ("f", x) |];
  Cleanup.sweep t;
  (* a xor a xor b = b *)
  check "reduces to b" true (Network.eval t [| true; true |]).(0);
  check "reduces to b (2)" false (Network.eval t [| true; false |]).(0)

let test_compact_preserves_function () =
  let t, _, _, _, _, f, _, _ = small_net () in
  ignore (Network.add_node t Gate.Not [| f |]);
  (* dead *)
  let c = Cleanup.compact t in
  check_int "dead removed" (Network.num_nodes t - 1) (Network.num_nodes c);
  for v = 0 to 7 do
    let ins = Test_util.bits_of_int v 3 in
    Alcotest.(check (array bool))
      "same function" (Network.eval t ins) (Network.eval c ins)
  done

(* Random-network property: cleanup preserves every output function. *)
let gen_random_net_seed = QCheck2.Gen.int_range 0 10000

let build_random_net seed =
  Random_logic.make ~name:"rand" ~inputs:6 ~outputs:4 ~gates:40 ~seed

let prop_cleanup_preserves =
  Test_util.qcheck_case ~count:50 "cleanup preserves functions" gen_random_net_seed
    (fun seed ->
      let t = build_random_net seed in
      let t' = Network.copy t in
      Cleanup.sweep t';
      let ok = ref true in
      for v = 0 to 63 do
        let ins = Test_util.bits_of_int v 6 in
        if Network.eval t ins <> Network.eval t' ins then ok := false
      done;
      !ok)

let prop_compact_preserves =
  Test_util.qcheck_case ~count:50 "compact preserves functions" gen_random_net_seed
    (fun seed ->
      let t = build_random_net seed in
      let t' = Cleanup.compact t in
      let ok = ref true in
      for v = 0 to 63 do
        let ins = Test_util.bits_of_int v 6 in
        if Network.eval t ins <> Network.eval t' ins then ok := false
      done;
      !ok)

let prop_topo_valid_random =
  Test_util.qcheck_case ~count:50 "topo order valid on random nets" gen_random_net_seed
    (fun seed ->
      let t = build_random_net seed in
      let order = Structure.topo_order t in
      let pos = Array.make (Network.num_nodes t) max_int in
      Array.iteri (fun i id -> pos.(id) <- i) order;
      Array.for_all
        (fun id ->
          Array.for_all (fun f -> pos.(f) < pos.(id)) (Network.fanins t id))
        order)

(* Reference MFFC: dereference a fresh copy of the counts, with a Hashtbl
   per node for distinct fanins. *)
let reference_mffc t ~fanout_counts ~live id =
  let counts = Array.copy fanout_counts in
  let acc = ref [ id ] in
  let rec deref x =
    let seen = Hashtbl.create 4 in
    Array.iter
      (fun f ->
        if not (Hashtbl.mem seen f) then begin
          Hashtbl.add seen f ();
          counts.(f) <- counts.(f) - 1;
          if counts.(f) = 0 && live.(f) && not (Network.is_input t f) then begin
            acc := f :: !acc;
            deref f
          end
        end)
      (Network.fanins t x)
  in
  deref id;
  !acc

(* Reference freed area: the MFFC minus the members the substitute nodes
   reach through fanins inside it. *)
let reference_freed_area t ~mffc target sns =
  let in_mffc = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_mffc id ()) mffc;
  let kept = Hashtbl.create 8 in
  let rec keep id =
    if id <> target && Hashtbl.mem in_mffc id && not (Hashtbl.mem kept id)
    then begin
      Hashtbl.replace kept id ();
      Array.iter keep (Network.fanins t id)
    end
  in
  List.iter keep sns;
  Cost.area_of_nodes t (List.filter (fun id -> not (Hashtbl.mem kept id)) mffc)

(* Random networks with reconvergence, repeated fanins and a dangling
   node. *)
let build_cone_net seed =
  let t = Random_logic.make ~name:"cones" ~inputs:8 ~outputs:5 ~gates:120 ~seed in
  let n = Network.num_nodes t in
  ignore (Network.add_node t Gate.And [| n - 1; n - 1; n - 2 |]);
  t

let prop_mffc_in_place =
  Test_util.qcheck_case ~count:40 "in-place mffc matches copying mffc"
    gen_random_net_seed (fun seed ->
      let t = build_cone_net seed in
      let live = Structure.live_set t in
      let fanout_counts = Structure.fanout_counts t ~live in
      let scratch = Mffc.create t ~live ~fanout_counts in
      let rng = Accals_bitvec.Prng.create seed in
      let n = Network.num_nodes t in
      let ok = ref true in
      for id = 0 to n - 1 do
        if live.(id) && not (Network.is_input t id) then begin
          let reference = reference_mffc t ~fanout_counts ~live id in
          let cone = Mffc.cone scratch id in
          if Mffc.nodes cone <> reference then ok := false;
          if Mffc.counts scratch <> fanout_counts then ok := false;
          if Mffc.area cone <> Cost.area_of_nodes t reference then ok := false;
          for _ = 1 to 4 do
            let sns =
              List.init (1 + Accals_bitvec.Prng.int rng 3) (fun _ ->
                  Accals_bitvec.Prng.int rng n)
            in
            if Mffc.freed_area scratch cone sns
               <> reference_freed_area t ~mffc:reference id sns
            then ok := false
          done
        end
      done;
      !ok)

let prop_in_tfo_matches_tfo_set =
  Test_util.qcheck_case ~count:40 "pruned tfo test matches tfo_set"
    gen_random_net_seed (fun seed ->
      let t = build_cone_net seed in
      let live = Structure.live_set t in
      let order = Structure.topo_order ~live t in
      let topo_pos = Array.make (Network.num_nodes t) (-1) in
      Array.iteri (fun i id -> topo_pos.(id) <- i) order;
      let fanouts = Structure.fanouts t in
      let probe = Structure.tfo_probe t ~topo_pos in
      let rng = Accals_bitvec.Prng.create seed in
      let n = Network.num_nodes t in
      let ok = ref true in
      (* Shuffled queries revisit targets, so stale memo entries would
         show. *)
      for _ = 1 to 3 * Array.length order do
        let target = order.(Accals_bitvec.Prng.int rng (Array.length order)) in
        let tfo = Structure.tfo_set t ~fanouts target in
        for _ = 1 to 8 do
          let v = Accals_bitvec.Prng.int rng n in
          if Structure.in_tfo probe ~target v <> Bitvec.get tfo v then ok := false
        done
      done;
      !ok)

(* [tfo_list] reads its cone back through [order]; the oracle sorts the
   [tfo_set] members by topological position. *)
let prop_tfo_list_topological =
  Test_util.qcheck_case ~count:40 "tfo_list is tfo_set sorted by topo_pos"
    gen_random_net_seed (fun seed ->
      let t = build_cone_net seed in
      let live = Structure.live_set t in
      let order = Structure.topo_order ~live t in
      let topo_pos = Array.make (Network.num_nodes t) (-1) in
      Array.iteri (fun i id -> topo_pos.(id) <- i) order;
      let fanouts = Structure.fanouts t in
      Array.for_all
        (fun target ->
          let oracle = ref [] in
          Bitvec.iter_set (Structure.tfo_set t ~fanouts target) (fun x ->
              if x <> target then oracle := x :: !oracle);
          let oracle = Array.of_list !oracle in
          Array.sort (fun a b -> compare topo_pos.(a) topo_pos.(b)) oracle;
          Structure.tfo_list ~fanouts ~order ~topo_pos target = oracle)
        order)

(* Simulation vs eval oracle *)

let test_sim_matches_eval () =
  let t, _, _, _, _, _, _, _ = small_net () in
  let pats = Sim.exhaustive 3 in
  let order = Structure.topo_order t in
  let sigs = Sim.run t pats ~order in
  for p = 0 to 7 do
    let ins = Test_util.bits_of_int p 3 in
    let expected = Network.eval t ins in
    let got = Test_util.sim_output_values t sigs ~pattern:p in
    Alcotest.(check (array bool)) "sim = eval" expected got
  done

let prop_sim_matches_eval_random =
  Test_util.qcheck_case ~count:30 "sim = eval on random nets" gen_random_net_seed
    (fun seed ->
      let t = build_random_net seed in
      let pats = Sim.exhaustive 6 in
      let order = Structure.topo_order t in
      let sigs = Sim.run t pats ~order in
      let ok = ref true in
      for p = 0 to 63 do
        let ins = Test_util.bits_of_int p 6 in
        if Network.eval t ins <> Test_util.sim_output_values t sigs ~pattern:p then ok := false
      done;
      !ok)

let test_sim_random_patterns_deterministic () =
  let pats1 = Sim.random ~seed:9 ~count:256 5 in
  let pats2 = Sim.random ~seed:9 ~count:256 5 in
  Array.iteri
    (fun i bv -> check "same patterns" true (Bitvec.equal bv pats2.by_input.(i)))
    pats1.by_input

let test_exhaustive_pattern_layout () =
  let pats = Sim.exhaustive 3 in
  check_int "count" 8 pats.count;
  (* bit p of input i = bit i of p *)
  check "pattern 5 input 0" true (Bitvec.get pats.by_input.(0) 5);
  check "pattern 5 input 1" false (Bitvec.get pats.by_input.(1) 5);
  check "pattern 5 input 2" true (Bitvec.get pats.by_input.(2) 5)

(* The one op-over-signatures kernel against the scalar reference, on
   exhaustive patterns: every op at every fanin count 0-4 that
   [Gate.arity_ok] allows, so 3- and 4-input NAND/NOR/XNOR are covered. *)
let test_eval_op_matches_gate_eval () =
  let ops =
    Gate.[ Const false; Const true; Input; Buf; Not; And; Or; Nand; Nor; Xor; Xnor; Mux ]
  in
  List.iter
    (fun op ->
      for k = 0 to 4 do
        if Gate.arity_ok op k then begin
          let pats = Sim.exhaustive k in
          let dst = Bitvec.create pats.count in
          let lookup i = pats.by_input.(i) in
          let fanins = Array.init k Fun.id in
          let name = Printf.sprintf "%s/%d" (Gate.to_string op) k in
          match op with
          | Gate.Input ->
            Alcotest.check_raises name
              (Invalid_argument "Sim.eval_op_into: primary input")
              (fun () -> Sim.eval_op_into op ~lookup fanins ~dst)
          | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand
          | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ->
            Sim.eval_op_into op ~lookup fanins ~dst;
            for p = 0 to pats.count - 1 do
              let expected = Gate.eval op (Array.init k (fun i -> p lsr i land 1 = 1)) in
              check (Printf.sprintf "%s pattern %d" name p) expected (Bitvec.get dst p)
            done
        end
      done)
    ops

(* Cost model *)

let test_cost_monotone () =
  let t, _, _, _, _, _, _, _ = small_net () in
  let area0 = Cost.area t in
  check "positive area" true (area0 > 0.0);
  check "positive delay" true (Cost.delay t > 0.0);
  (* Replacing a gate with a constant reduces area. *)
  let f = (Network.outputs t).(0) in
  Network.replace t f (Gate.Const false) [||];
  check "area decreased" true (Cost.area t < area0)

let test_cost_free_gates () =
  Alcotest.(check (float 0.0)) "buf free" 0.0 (Cost.gate_area Gate.Buf 1);
  Alcotest.(check (float 0.0)) "input free" 0.0 (Cost.gate_area Gate.Input 0);
  check "nary grows" true (Cost.gate_area Gate.And 4 > Cost.gate_area Gate.And 2)

let test_aig_count () =
  let t, _, _, _, _, _, _, _ = small_net () in
  (* and2 = 1, xor2 = 3, or2 = 1, not = 0 -> 5 *)
  check_int "aig nodes" 5 (Cost.aig_node_count t)

let suite =
  [
    ( "network",
      [
        Alcotest.test_case "eval reference" `Quick test_eval;
        Alcotest.test_case "gate eval ops" `Quick test_gate_eval_ops;
        Alcotest.test_case "gate arity violation" `Quick test_gate_arity_violation;
        Alcotest.test_case "replace detects cycle" `Quick test_replace_cycle_detected;
        Alcotest.test_case "replace semantics" `Quick test_replace_semantics;
        Alcotest.test_case "replace input rejected" `Quick test_replace_input_rejected;
        Alcotest.test_case "reaches" `Quick test_reaches;
        Alcotest.test_case "copy independent" `Quick test_copy_independent;
        Alcotest.test_case "validate ok" `Quick test_validate_ok;
      ] );
    ( "structure",
      [
        Alcotest.test_case "topo order" `Quick test_topo_order;
        Alcotest.test_case "live set" `Quick test_live_set;
        Alcotest.test_case "levels" `Quick test_levels;
        Alcotest.test_case "fanouts" `Quick test_fanouts;
        Alcotest.test_case "tfo" `Quick test_tfo;
        Alcotest.test_case "shortest path bounded" `Quick test_shortest_path;
        Alcotest.test_case "mffc" `Quick test_mffc;
        Alcotest.test_case "mffc excludes shared" `Quick test_mffc_shared_node_excluded;
        prop_topo_valid_random;
        prop_mffc_in_place;
        prop_in_tfo_matches_tfo_set;
        prop_tfo_list_topological;
      ] );
    ( "cleanup",
      [
        Alcotest.test_case "const propagation" `Quick test_cleanup_const_prop;
        Alcotest.test_case "buffer chain" `Quick test_cleanup_buffer_chain;
        Alcotest.test_case "double negation" `Quick test_cleanup_double_negation;
        Alcotest.test_case "complement pair" `Quick test_cleanup_complement_pair;
        Alcotest.test_case "xor pair removal" `Quick test_cleanup_xor_pairs;
        Alcotest.test_case "compact preserves function" `Quick test_compact_preserves_function;
        prop_cleanup_preserves;
        prop_compact_preserves;
      ] );
    ( "sim",
      [
        Alcotest.test_case "sim matches eval" `Quick test_sim_matches_eval;
        Alcotest.test_case "random patterns deterministic" `Quick
          test_sim_random_patterns_deterministic;
        Alcotest.test_case "exhaustive layout" `Quick test_exhaustive_pattern_layout;
        Alcotest.test_case "op kernel matches gate eval" `Quick test_eval_op_matches_gate_eval;
        prop_sim_matches_eval_random;
      ] );
    ( "cost",
      [
        Alcotest.test_case "monotone" `Quick test_cost_monotone;
        Alcotest.test_case "free gates" `Quick test_cost_free_gates;
        Alcotest.test_case "aig node count" `Quick test_aig_count;
      ] );
  ]
