open Accals_network
module Truth = Accals_twolevel.Truth
module Qm = Accals_twolevel.Qm
module Sop_synth = Accals_twolevel.Sop_synth
module Cut_enum = Accals_twolevel.Cut_enum
module Prng = Accals_bitvec.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Truth --- *)

let test_truth_var () =
  (* var 0 over 2 vars: minterms 1 and 3. *)
  check_int "var0" 0b1010 (Truth.var 2 0);
  check_int "var1" 0b1100 (Truth.var 2 1);
  check "get" true (Truth.get (Truth.var 2 0) 1);
  check "get off" false (Truth.get (Truth.var 2 0) 2)

let test_truth_ops () =
  let a = Truth.var 2 0 and b = Truth.var 2 1 in
  check_int "and" 0b1000 (Truth.eval_op 2 Gate.And [| a; b |]);
  check_int "or" 0b1110 (Truth.eval_op 2 Gate.Or [| a; b |]);
  check_int "xor" 0b0110 (Truth.eval_op 2 Gate.Xor [| a; b |]);
  check_int "nand" 0b0111 (Truth.eval_op 2 Gate.Nand [| a; b |]);
  check_int "not" 0b0101 (Truth.eval_op 2 Gate.Not [| a |]);
  check_int "const1" 0b1111 (Truth.eval_op 2 (Gate.Const true) [||])

let test_truth_mux () =
  let s = Truth.var 3 0 and a = Truth.var 3 1 and b = Truth.var 3 2 in
  let m = Truth.eval_op 3 Gate.Mux [| s; a; b |] in
  for row = 0 to 7 do
    let sv = row land 1 = 1 and av = row lsr 1 land 1 = 1 and bv = row lsr 2 land 1 = 1 in
    check "mux row" (if sv then av else bv) (Truth.get m row)
  done

let test_truth_of_cone () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let c = Network.add_input t "c" in
  let ab = Network.add_node t Gate.And [| a; b |] in
  let f = Network.add_node t Gate.Xor [| ab; c |] in
  Network.set_outputs t [| ("f", f) |];
  let truth = Truth.of_cone t ~leaves:[| a; b; c |] ~root:f in
  for row = 0 to 7 do
    let ins = Test_util.bits_of_int row 3 in
    check "cone row" (Network.eval t ins).(0) (Truth.get truth row)
  done

let test_truth_of_cone_intermediate_leaves () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let ab = Network.add_node t Gate.And [| a; b |] in
  let nab = Network.add_node t Gate.Not [| ab |] in
  Network.set_outputs t [| ("f", nab) |];
  (* Leaves = {ab}: f = NOT x0. *)
  check_int "not" 0b01 (Truth.of_cone t ~leaves:[| ab |] ~root:nab)

let test_truth_of_cone_escape () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  let ab = Network.add_node t Gate.And [| a; b |] in
  Network.set_outputs t [| ("f", ab) |];
  check "escape detected" true
    (try ignore (Truth.of_cone t ~leaves:[| a |] ~root:ab); false
     with Invalid_argument _ -> true)

(* --- QM --- *)

let brute_force_check vars on dc cubes =
  (* Cover must contain all of on, nothing outside on|dc. *)
  let t = Qm.cubes_truth ~vars cubes in
  let ok = ref true in
  for m = 0 to Truth.rows vars - 1 do
    if Truth.get on m && not (Truth.get t m) then ok := false;
    if Truth.get t m && not (Truth.get on m || Truth.get dc m) then ok := false
  done;
  !ok

let test_qm_simple () =
  (* f = a (vars a,b): on = {1,3} *)
  let cubes = Qm.minimize ~vars:2 ~on:0b1010 () in
  check "covers" true (brute_force_check 2 0b1010 0 cubes);
  check_int "one cube" 1 (List.length cubes);
  check_int "one literal" 1 (Qm.literal_cost cubes)

let test_qm_xor () =
  (* xor needs two 2-literal cubes *)
  let cubes = Qm.minimize ~vars:2 ~on:0b0110 () in
  check "covers" true (brute_force_check 2 0b0110 0 cubes);
  check_int "two cubes" 2 (List.length cubes);
  check_int "four literals" 4 (Qm.literal_cost cubes)

let test_qm_tautology () =
  let cubes = Qm.minimize ~vars:3 ~on:0xFF () in
  check_int "single universal cube" 1 (List.length cubes);
  check_int "zero literals" 0 (Qm.literal_cost cubes)

let test_qm_empty () =
  Alcotest.(check (list reject)) "empty" []
    (List.map (fun _ -> Alcotest.fail "no cubes") (Qm.minimize ~vars:3 ~on:0 ()))

let test_qm_dont_care_helps () =
  (* on = {0}, dc = {1}: with dc, one 1-literal cube (~b) suffices over
     vars a,b; without it, the cube ~a~b needs 2 literals. *)
  let without = Qm.minimize ~vars:2 ~on:0b0001 () in
  let with_dc = Qm.minimize ~vars:2 ~on:0b0001 ~dc:0b0010 () in
  check "both cover" true
    (brute_force_check 2 0b0001 0 without && brute_force_check 2 0b0001 0b0010 with_dc);
  check "dc not worse" true (Qm.literal_cost with_dc <= Qm.literal_cost without);
  check_int "dc cost" 1 (Qm.literal_cost with_dc)

let prop_qm_random =
  Test_util.qcheck_case ~count:300 "qm covers random functions"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 0 0xFFFF) (int_range 0 0xFFFF))
    (fun (vars, on_raw, dc_raw) ->
      let m = Truth.mask vars in
      let on = on_raw land m in
      let dc = dc_raw land m land lnot on in
      let cubes = Qm.minimize ~vars ~on ~dc () in
      brute_force_check vars on dc cubes)

let prop_qm_no_worse_than_minterms =
  Test_util.qcheck_case ~count:200 "qm not worse than raw minterm cover"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 0xFFFF))
    (fun (vars, on_raw) ->
      let on = on_raw land Truth.mask vars in
      if on = 0 then true
      else begin
        let cubes = Qm.minimize ~vars ~on () in
        Qm.literal_cost cubes <= vars * Truth.ones vars on
      end)

(* Reference prime generation: the classic merge loop. Start from the
   minterms of the care set and merge cubes differing in exactly one care
   bit until fixpoint; cubes never merged at any stage are prime. *)
let reference_primes ~vars ~care =
  let full_mask = (1 lsl vars) - 1 in
  let current = Hashtbl.create 64 in
  for m = 0 to Truth.rows vars - 1 do
    if Truth.get care m then
      Hashtbl.replace current { Qm.mask = full_mask; value = m } false
  done;
  let result = ref [] in
  let continue_ = ref (Hashtbl.length current > 0) in
  let generation = ref current in
  while !continue_ do
    let next = Hashtbl.create 64 in
    let cubes = Hashtbl.fold (fun c _ acc -> c :: acc) !generation [] in
    let merged = Hashtbl.create 64 in
    List.iteri
      (fun i (a : Qm.cube) ->
        List.iteri
          (fun j (b : Qm.cube) ->
            if j > i && a.mask = b.mask then begin
              let diff = a.value lxor b.value in
              if diff <> 0 && diff land (diff - 1) = 0 then begin
                let c =
                  { Qm.mask = a.mask land lnot diff; value = a.value land lnot diff }
                in
                Hashtbl.replace next c false;
                Hashtbl.replace merged a ();
                Hashtbl.replace merged b ()
              end
            end)
          cubes)
      cubes;
    List.iter
      (fun c -> if not (Hashtbl.mem merged c) then result := c :: !result)
      cubes;
    generation := next;
    continue_ := Hashtbl.length next > 0
  done;
  List.sort_uniq compare !result

(* Reference cover: the list-based essential-then-greedy cover over the
   reference primes. *)
let reference_minimize ~vars ~on ~dc =
  let on = on land Truth.mask vars in
  let dc = dc land Truth.mask vars land lnot on in
  if on = 0 then []
  else begin
    let prime_list = reference_primes ~vars ~care:(on lor dc) in
    let required = List.filter (Truth.get on) (List.init (Truth.rows vars) Fun.id) in
    let chosen = ref [] in
    let covers_of c = List.filter (Qm.cube_covers c) required in
    List.iter
      (fun m ->
        match List.filter (fun c -> Qm.cube_covers c m) prime_list with
        | [ only ] when not (List.mem only !chosen) -> chosen := only :: !chosen
        | _ -> ())
      required;
    let uncovered () =
      List.filter
        (fun m -> not (List.exists (fun c -> Qm.cube_covers c m) !chosen))
        required
    in
    while uncovered () <> [] do
      let best = ref None in
      List.iter
        (fun c ->
          if not (List.mem c !chosen) then begin
            let gain =
              List.length (List.filter (fun m -> List.mem m (uncovered ())) (covers_of c))
            in
            if gain > 0 then
              match !best with
              | Some (g, bc)
                when g > gain || (g = gain && Qm.cube_literals bc <= Qm.cube_literals c) ->
                ()
              | Some _ | None -> best := Some (gain, c)
          end)
        prime_list;
      match !best with
      | None -> assert false
      | Some (_, c) -> chosen := c :: !chosen
    done;
    let rec prune kept = function
      | [] -> kept
      | c :: rest ->
        let others = kept @ rest in
        let still_covered =
          List.for_all
            (fun m ->
              (not (Qm.cube_covers c m))
              || List.exists (fun c' -> Qm.cube_covers c' m) others)
            required
        in
        if still_covered then prune kept rest else prune (c :: kept) rest
    in
    prune [] !chosen
  end

let test_qm_minimize_exhaustive () =
  for vars = 1 to 3 do
    let rows = Truth.rows vars in
    (* Every assignment of each minterm to off / on / don't-care. *)
    let rec assignments m on dc =
      if m = rows then begin
        if Qm.minimize ~vars ~on ~dc () <> reference_minimize ~vars ~on ~dc then
          Alcotest.failf "minimize differs: vars=%d on=%#x dc=%#x" vars on dc
      end
      else begin
        assignments (m + 1) on dc;
        assignments (m + 1) (Truth.set on m true) dc;
        assignments (m + 1) on (Truth.set dc m true)
      end
    in
    assignments 0 0 0
  done

let prop_qm_minimize_reference =
  Test_util.qcheck_case ~count:500 "qm minimize random 4-5 vars"
    QCheck2.Gen.(triple (int_range 4 5) int int)
    (fun (vars, on, dc) ->
      Qm.minimize ~vars ~on ~dc () = reference_minimize ~vars ~on ~dc)

(* One memo across every 1-3 variable key, each looked up twice: the first
   call fills the entry, the second must return the same cover. *)
let test_qm_memo_exhaustive () =
  let memo = Qm.memo () in
  for vars = 1 to 3 do
    let rows = Truth.rows vars in
    let rec assignments m on dc =
      if m = rows then begin
        let expected = Qm.minimize ~vars ~on ~dc () in
        for _ = 1 to 2 do
          if Qm.minimize_memo memo ~vars ~on ~dc <> expected then
            Alcotest.failf "memo differs: vars=%d on=%#x dc=%#x" vars on dc
        done
      end
      else begin
        assignments (m + 1) on dc;
        assignments (m + 1) (Truth.set on m true) dc;
        assignments (m + 1) on (Truth.set dc m true)
      end
    in
    assignments 0 0 0
  done

(* Random 4-variable keys, unmasked (bits above the truth table are
   ignored by [minimize] and must not split or merge memo entries). *)
let prop_qm_memo_random =
  Test_util.qcheck_case ~count:200 "qm memo random 4 vars"
    QCheck2.Gen.(list_size (int_range 1 50) (pair int int))
    (fun keys ->
      let memo = Qm.memo () in
      List.for_all
        (fun (on, dc) ->
          let expected = Qm.minimize ~vars:4 ~on ~dc () in
          Qm.minimize_memo memo ~vars:4 ~on ~dc = expected
          && Qm.minimize_memo memo ~vars:4 ~on ~dc = expected)
        (keys @ keys))

let test_qm_primes_exhaustive () =
  for vars = 0 to 4 do
    for care = 0 to Truth.mask vars do
      if Qm.primes ~vars ~care <> reference_primes ~vars ~care then
        Alcotest.failf "primes differ: vars=%d care=%#x" vars care
    done
  done

let prop_qm_primes_wide =
  Test_util.qcheck_case ~count:200 "qm primes random 5-6 vars"
    QCheck2.Gen.(quad (int_range 5 6) int int bool)
    (fun (vars, a, b, dense) ->
      (* OR-ing two random words gives denser care sets, hence larger
         primes. *)
      let care = if dense then a lor b else a in
      Qm.primes ~vars ~care = reference_primes ~vars ~care)

(* --- Sop_synth --- *)

let test_sop_build_matches_truth () =
  let rng = Prng.create 99 in
  for _ = 1 to 50 do
    let vars = 2 + Prng.int rng 3 in
    let on = Prng.int rng (Truth.mask vars + 1) in
    let cubes = Qm.minimize ~vars ~on () in
    let t = Network.create () in
    let leaves = Array.init vars (fun i -> Network.add_input t (Printf.sprintf "x%d" i)) in
    let root = Sop_synth.build t ~leaves cubes in
    Network.set_outputs t [| ("f", root) |];
    for row = 0 to Truth.rows vars - 1 do
      let ins = Test_util.bits_of_int row vars in
      check "sop row" (Truth.get on row) (Network.eval t ins).(0)
    done
  done

let test_sop_build_constants () =
  let t = Network.create () in
  let a = Network.add_input t "a" in
  let zero = Sop_synth.build t ~leaves:[| a |] [] in
  let one = Sop_synth.build t ~leaves:[| a |] [ { Qm.mask = 0; value = 0 } ] in
  Network.set_outputs t [| ("z", zero); ("o", one) |];
  Alcotest.(check (array bool)) "consts" [| false; true |] (Network.eval t [| true |])

let test_sop_estimated_area_not_understated () =
  (* estimated_area should be >= the real post-build area of the new nodes. *)
  let rng = Prng.create 7 in
  for _ = 1 to 30 do
    let vars = 2 + Prng.int rng 3 in
    let on = Prng.int rng (Truth.mask vars + 1) in
    let cubes = Qm.minimize ~vars ~on () in
    let t = Network.create () in
    let leaves = Array.init vars (fun i -> Network.add_input t (Printf.sprintf "x%d" i)) in
    let before = Network.num_nodes t in
    let root = Sop_synth.build t ~leaves cubes in
    Network.set_outputs t [| ("f", root) |];
    let added = ref 0.0 in
    for id = before to Network.num_nodes t - 1 do
      added := !added +. Cost.gate_area (Network.op t id) (Array.length (Network.fanins t id))
    done;
    check "estimate covers build" true (Sop_synth.estimated_area cubes +. 1e-9 >= !added)
  done

(* --- Cut enumeration --- *)

let test_cuts_are_cuts () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let order = Structure.topo_order net in
  let cuts = Cut_enum.enumerate net ~order ~k:4 ~per_node:4 in
  let live = Structure.live_set net in
  let total = ref 0 in
  for id = 0 to Network.num_nodes net - 1 do
    if live.(id) then
      List.iter
        (fun leaves ->
          incr total;
          check "cut property" true (Cut_enum.is_cut net ~root:id ~leaves);
          check "cut size" true (Array.length leaves <= 4))
        cuts.(id)
  done;
  check "found cuts" true (!total > 100)

let test_cut_function_matches_node () =
  (* For every enumerated cut of a small circuit, the cut function evaluated
     on the leaf values equals the node value. *)
  let net = Accals_circuits.Adders.ripple_carry ~width:3 in
  let order = Structure.topo_order net in
  let cuts = Cut_enum.enumerate net ~order ~k:4 ~per_node:6 in
  let inputs = Network.inputs net in
  let k = Array.length inputs in
  let live = Structure.live_set net in
  (* Evaluate all nodes for each input vector via signatures. *)
  let patterns = Sim.exhaustive k in
  let sigs = Sim.run net patterns ~order in
  for id = 0 to Network.num_nodes net - 1 do
    if live.(id) && not (Network.is_input net id) then
      List.iter
        (fun leaves ->
          if Array.length leaves <= Truth.max_vars then begin
            let truth = Truth.of_cone net ~leaves ~root:id in
            for p = 0 to patterns.Sim.count - 1 do
              let minterm = ref 0 in
              Array.iteri
                (fun i leaf ->
                  if Accals_bitvec.Bitvec.get sigs.(leaf) p then
                    minterm := !minterm lor (1 lsl i))
                leaves;
              check "cut function" (Accals_bitvec.Bitvec.get sigs.(id) p)
                (Truth.get truth !minterm)
            done
          end)
        cuts.(id)
  done

let test_trivial_cut_excluded () =
  let net = Accals_circuits.Adders.ripple_carry ~width:2 in
  let order = Structure.topo_order net in
  let cuts = Cut_enum.enumerate net ~order ~k:4 ~per_node:8 in
  Array.iteri
    (fun id cs ->
      List.iter (fun leaves -> check "no trivial cut" false (leaves = [| id |])) cs)
    cuts

(* --- Sop LAC end-to-end --- *)

let test_sop_lac_exact_preserves_function () =
  (* An exact SOP rewrite (no don't-cares beyond the function itself) must
     preserve the circuit function. *)
  let net = Accals_circuits.Adders.ripple_carry ~width:3 in
  let order = Structure.topo_order net in
  let cuts = Cut_enum.enumerate net ~order ~k:4 ~per_node:4 in
  let live = Structure.live_set net in
  let tried = ref 0 in
  for id = 0 to Network.num_nodes net - 1 do
    if live.(id) && not (Network.is_input net id) && cuts.(id) <> [] then begin
      match cuts.(id) with
      | leaves :: _ when Array.length leaves >= 2 ->
        incr tried;
        let truth = Truth.of_cone net ~leaves ~root:id in
        let cubes = Qm.minimize ~vars:(Array.length leaves) ~on:truth () in
        let copy = Network.copy net in
        let lac =
          Accals_lac.Lac.make ~target:id
            (Accals_lac.Lac.Sop { leaves; cubes })
            ~area_gain:1.0
        in
        Accals_lac.Lac.apply copy lac;
        for v = 0 to 127 do
          let ins = Test_util.bits_of_int v 7 in
          Alcotest.(check (array bool)) "function preserved"
            (Network.eval net ins) (Network.eval copy ins)
        done
      | _ -> ()
    end
  done;
  check "exercised" true (!tried > 3)

let suite =
  [
    ( "truth tables",
      [
        Alcotest.test_case "projections" `Quick test_truth_var;
        Alcotest.test_case "operators" `Quick test_truth_ops;
        Alcotest.test_case "mux" `Quick test_truth_mux;
        Alcotest.test_case "of_cone" `Quick test_truth_of_cone;
        Alcotest.test_case "of_cone intermediate leaves" `Quick
          test_truth_of_cone_intermediate_leaves;
        Alcotest.test_case "of_cone escape" `Quick test_truth_of_cone_escape;
      ] );
    ( "quine-mccluskey",
      [
        Alcotest.test_case "single literal" `Quick test_qm_simple;
        Alcotest.test_case "xor" `Quick test_qm_xor;
        Alcotest.test_case "tautology" `Quick test_qm_tautology;
        Alcotest.test_case "empty function" `Quick test_qm_empty;
        Alcotest.test_case "don't cares help" `Quick test_qm_dont_care_helps;
        prop_qm_random;
        prop_qm_no_worse_than_minterms;
        Alcotest.test_case "qm primes exhaustive 0-4 vars" `Quick
          test_qm_primes_exhaustive;
        prop_qm_primes_wide;
        Alcotest.test_case "qm minimize exhaustive 1-3 vars" `Quick
          test_qm_minimize_exhaustive;
        prop_qm_minimize_reference;
        Alcotest.test_case "qm memo exhaustive 1-3 vars" `Quick test_qm_memo_exhaustive;
        prop_qm_memo_random;
      ] );
    ( "sop synthesis",
      [
        Alcotest.test_case "build matches truth" `Quick test_sop_build_matches_truth;
        Alcotest.test_case "constants" `Quick test_sop_build_constants;
        Alcotest.test_case "area estimate covers build" `Quick
          test_sop_estimated_area_not_understated;
      ] );
    ( "cut enumeration",
      [
        Alcotest.test_case "cut property holds" `Quick test_cuts_are_cuts;
        Alcotest.test_case "cut functions match" `Slow test_cut_function_matches_node;
        Alcotest.test_case "trivial cut excluded" `Quick test_trivial_cut_excluded;
      ] );
    ( "sop lac",
      [
        Alcotest.test_case "exact rewrite preserves function" `Quick
          test_sop_lac_exact_preserves_function;
      ] );
  ]
