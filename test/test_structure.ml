(* The structural passes against the versions they replaced: Structure's
   orders and fanout tables and Cleanup's sweep and strash against the
   Hashtbl versions in structure_ref.ml, Cut_enum against the list-based
   enumeration in cut_enum_ref.ml, and Truth.of_cone against an Array.map
   evaluation. Every property runs on random DAGs built to hit the corner
   cases of deduplication: repeated fanins (And (x, x), Xor (x, x)),
   constants, Buf chains and dead nodes. CI reruns them 100 times longer. *)

open Accals_network
module Cut_enum = Accals_twolevel.Cut_enum
module Truth = Accals_twolevel.Truth
module Prng = Accals_bitvec.Prng
module Ref = Structure_ref

let ops =
  [|
    Gate.Const false; Gate.Const true; Gate.Buf; Gate.Not; Gate.And; Gate.Or; Gate.Nand;
    Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux;
  |]

(* 1-6 inputs and up to 60 gates of every operator. Fanins lean to recent
   nodes, so Buf and Not gates chain; a later fanin repeats an earlier one
   a quarter of the time; some gates copy an earlier one with reversed
   fanins; the few outputs leave many nodes dead. *)
let random_dag seed =
  let rng = Prng.create seed in
  let net = Network.create () in
  for i = 0 to Prng.int rng 6 do
    ignore (Network.add_input net (Printf.sprintf "x%d" i))
  done;
  let pick () =
    let n = Network.num_nodes net in
    if Prng.int rng 3 = 0 then Prng.int rng n else n - 1 - Prng.int rng (min n 6)
  in
  for _ = 0 to Prng.int rng 60 do
    let g = pick () in
    let op, fanins =
      if Prng.int rng 6 = 0 && not (Network.is_input net g) then
        (* A copy of [g] with reversed fanins: strash must merge the two
           when [g]'s operator is commutative. *)
        let fis = Network.fanins net g in
        let n = Array.length fis in
        (Network.op net g, Array.init n (fun i -> fis.(n - 1 - i)))
      else begin
        let op = ops.(Prng.int rng (Array.length ops)) in
        let arity =
          match op with
          | Gate.Const _ | Gate.Input -> 0
          | Gate.Buf | Gate.Not -> 1
          | Gate.Mux -> 3
          | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
            if Prng.int rng 4 = 0 then 2 + Prng.int rng 5 else 2
        in
        let fanins = Array.make arity 0 in
        for i = 0 to arity - 1 do
          fanins.(i) <-
            (if i > 0 && Prng.int rng 4 = 0 then fanins.(Prng.int rng i) else pick ())
        done;
        (op, fanins)
      end
    in
    ignore (Network.add_node net op fanins)
  done;
  Network.set_outputs net
    (Array.init (1 + Prng.int rng 4) (fun i -> (Printf.sprintf "y%d" i, pick ())));
  net

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let prop ?(count = 300) name gen f =
  Test_util.qcheck_case ~count ~long_factor:100 name gen f

(* Every node's definition and the output table, not just the digest:
   the passes must leave dead nodes exactly as the old ones did too. *)
let same_network a b =
  Network.digest a = Network.digest b
  && Network.num_nodes a = Network.num_nodes b
  && Network.outputs a = Network.outputs b
  && List.for_all
       (fun id ->
         Network.op a id = Network.op b id && Network.fanins a id = Network.fanins b id)
       (List.init (Network.num_nodes a) Fun.id)

let same_structure net =
  let live = Structure.live_set net in
  let all = Array.make (Network.num_nodes net) true in
  Structure.topo_order net = Ref.topo_order net
  && Structure.topo_order ~live_only:false net = Ref.topo_order ~live_only:false net
  && Structure.topo_order ~live net = Ref.topo_order ~live net
  && Structure.fanouts net = Ref.fanouts net
  && Structure.fanouts ~live_only:false net = Ref.fanouts ~live_only:false net
  && Structure.fanout_counts net ~live = Ref.fanout_counts net ~live
  && Structure.fanout_counts net ~live:all = Ref.fanout_counts net ~live:all

(* Also after a sweep, which leaves Buf-free live logic over dead nodes. *)
let prop_structure =
  prop "orders and fanouts equal the Hashtbl versions" gen_seed (fun seed ->
      let net = random_dag seed in
      same_structure net
      &&
      (Cleanup.sweep net;
       same_structure net))

type pass = Sweep | Strash

let gen_passes =
  QCheck2.Gen.(pair gen_seed (list_size (int_range 1 4) (oneofl [ Sweep; Strash ])))

let prop_cleanup =
  prop "sweep and strash equal the Hashtbl versions" gen_passes (fun (seed, passes) ->
      let net = random_dag seed in
      let reference = Network.copy net in
      List.for_all
        (fun pass ->
          (match pass with
           | Sweep ->
             Cleanup.sweep net;
             Ref.sweep reference
           | Strash ->
             Cleanup.strash net;
             Ref.strash reference);
          same_network net reference)
        passes)

let gen_cut_case =
  QCheck2.Gen.(triple gen_seed (oneofl [ 2; 3; 4; 6 ]) (oneofl [ 1; 2; 4; 8 ]))

let prop_enumerate =
  prop "cut lists equal the list-based enumeration" gen_cut_case
    (fun (seed, k, per_node) ->
      let net = random_dag seed in
      List.for_all
        (fun live_only ->
          let order = Structure.topo_order ~live_only net in
          Cut_enum.enumerate net ~order ~k ~per_node
          = Cut_enum_ref.enumerate net ~order ~k ~per_node)
        [ true; false ])

(* A random edit: node [id] gets a new definition over lower ids,
   sometimes through a freshly added gate. An earlier edit through an
   added gate can make the new definition close a cycle; [replace] then
   raises before it changes anything. *)
let edit rng net id =
  let over () = Prng.int rng id in
  let op = ops.(2 + Prng.int rng (Array.length ops - 2)) in
  let fanins =
    match op with
    | Gate.Buf | Gate.Not -> [| over () |]
    | Gate.Mux -> [| over (); over (); over () |]
    | Gate.Const _ | Gate.Input | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
    | Gate.Xnor ->
      let a = over () in
      [| a; (if Prng.bool rng then a else over ()) |]
  in
  if Prng.int rng 4 = 0 then
    Network.replace net id Gate.Buf [| Network.add_node net op fanins |]
  else Network.replace net id op fanins

(* Four rounds of edits after the first update; each round marks the
   edited nodes dirty, as the engine marks redefined ones. *)
let prop_update =
  prop ~count:200 "incremental cut updates equal the list-based enumeration" gen_cut_case
    (fun (seed, k, per_node) ->
      let net = random_dag seed in
      let rng = Prng.create (seed + 1) in
      let s = Cut_enum.store () and r = Cut_enum_ref.store () in
      let round stamp dirty =
        let order = Structure.topo_order net in
        let recomputed = Cut_enum.update s net ~order ~k ~per_node ~dirty ~stamp in
        recomputed = Cut_enum_ref.update r net ~order ~k ~per_node ~dirty ~stamp
        && Array.for_all
             (fun id ->
               Cut_enum.cuts s id = Cut_enum_ref.cuts r id
               && Cut_enum.changed_at s id = Cut_enum_ref.changed_at r id)
             order
      in
      round 0 (fun _ -> true)
      && List.for_all
           (fun stamp ->
             let edited = Array.make (Network.num_nodes net + 4) false in
             for _ = 0 to Prng.int rng 3 do
               let id = Prng.int rng (Network.num_nodes net) in
               if id > 0 && not (Network.is_input net id) then
                 match edit rng net id with
                 | () -> edited.(id) <- true
                 | exception Network.Cycle _ -> ()
             done;
             round stamp (fun id -> edited.(id)))
           [ 1; 2; 3; 4 ])

(* The evaluation of_cone replaced: [Test_util.truth_eval_op] over the
   fanins' tables, gathered with [Array.map]. *)
let of_cone_ref net ~leaves ~root =
  let vars = Array.length leaves in
  let memo = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace memo id (Truth.var vars i)) leaves;
  let rec compute id =
    match Hashtbl.find_opt memo id with
    | Some t -> t
    | None ->
      let op = Network.op net id in
      if op = Gate.Input then invalid_arg "of_cone_ref: cone escapes the cut";
      let t = Test_util.truth_eval_op vars op (Array.map compute (Network.fanins net id)) in
      Hashtbl.replace memo id t;
      t
  in
  compute root

(* Every enumerated cut of every node, and as many random leaf sets, most
   of which are no cut: both must raise on those. One scratch serves all
   calls, as in the generator. *)
let prop_of_cone =
  prop "of_cone equals the Array.map evaluation" gen_seed (fun seed ->
      let net = random_dag seed in
      let rng = Prng.create seed in
      let n = Network.num_nodes net in
      let order = Structure.topo_order ~live_only:false net in
      let cuts = Cut_enum.enumerate net ~order ~k:Truth.max_vars ~per_node:8 in
      let scratch = Truth.scratch () in
      let agree root leaves =
        let run f =
          match f net ~leaves ~root with t -> Some t | exception Invalid_argument _ -> None
        in
        run (Truth.of_cone ~scratch) = run of_cone_ref
      in
      Array.for_all
        (fun root ->
          List.for_all (agree root) cuts.(root)
          &&
          let leaves = List.init (1 + Prng.int rng 4) (fun _ -> Prng.int rng n) in
          agree root (Array.of_list (List.sort_uniq compare leaves)))
        order)

let suite =
  [
    ( "structural passes",
      [ prop_structure; prop_cleanup; prop_enumerate; prop_update; prop_of_cone ] );
  ]
