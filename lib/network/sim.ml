module Bitvec = Accals_bitvec.Bitvec
module Prng = Accals_bitvec.Prng

type patterns = { count : int; by_input : Bitvec.t array }

let exhaustive k =
  if k < 0 || k > 20 then invalid_arg "Sim.exhaustive: input count out of range";
  let count = 1 lsl k in
  let by_input =
    Array.init k (fun i ->
        let bv = Bitvec.create count in
        for p = 0 to count - 1 do
          if p lsr i land 1 = 1 then Bitvec.set bv p true
        done;
        bv)
  in
  { count; by_input }

let random ~seed ~count k =
  if count <= 0 then invalid_arg "Sim.random: count must be positive";
  let rng = Prng.create seed in
  let by_input =
    Array.init k (fun _ ->
        let bv = Bitvec.create count in
        Bitvec.randomize rng bv;
        bv)
  in
  { count; by_input }

let for_network ?(seed = 1) ?(count = 2048) ?(exhaustive_limit = 14) t =
  let k = Array.length (Network.inputs t) in
  if k <= exhaustive_limit then exhaustive k else random ~seed ~count k

let dummy = Bitvec.create 0

(* [combine] folded left to right over at least two fanin signatures. *)
let fold_into combine ~lookup fanins ~dst =
  combine (lookup fanins.(0)) (lookup fanins.(1)) ~dst;
  for i = 2 to Array.length fanins - 1 do
    combine dst (lookup fanins.(i)) ~dst
  done

let eval_op_into op ~lookup fanins ~dst =
  match op with
  | Gate.Input -> invalid_arg "Sim.eval_op_into: primary input"
  | Gate.Const b -> Bitvec.fill dst b
  | Gate.Buf -> Bitvec.blit ~src:(lookup fanins.(0)) ~dst
  | Gate.Not -> Bitvec.lognot_into (lookup fanins.(0)) ~dst
  | Gate.And -> fold_into Bitvec.logand_into ~lookup fanins ~dst
  | Gate.Or -> fold_into Bitvec.logor_into ~lookup fanins ~dst
  | Gate.Xor -> fold_into Bitvec.logxor_into ~lookup fanins ~dst
  | Gate.Nand ->
    fold_into Bitvec.logand_into ~lookup fanins ~dst;
    Bitvec.lognot_into dst ~dst
  | Gate.Nor ->
    fold_into Bitvec.logor_into ~lookup fanins ~dst;
    Bitvec.lognot_into dst ~dst
  | Gate.Xnor ->
    fold_into Bitvec.logxor_into ~lookup fanins ~dst;
    Bitvec.lognot_into dst ~dst
  | Gate.Mux ->
    Bitvec.mux_into ~sel:(lookup fanins.(0)) (lookup fanins.(1)) (lookup fanins.(2)) ~dst

let eval_node_into t ~lookup id ~dst =
  eval_op_into (Network.op t id) ~lookup (Network.fanins t id) ~dst

let run ?live t pats ~order =
  let n = Network.num_nodes t in
  let sigs = Array.make n dummy in
  let input_ids = Network.inputs t in
  if Array.length input_ids <> Array.length pats.by_input then
    invalid_arg "Sim.run: pattern/input mismatch";
  Array.iteri (fun i id -> sigs.(id) <- pats.by_input.(i)) input_ids;
  let lookup id = sigs.(id) in
  let dead id = match live with Some l -> not l.(id) | None -> false in
  Array.iter
    (fun id ->
      (* Dead nodes stay on the shared dummy: no allocation, no eval. *)
      if not (Network.is_input t id) && not (dead id) then begin
        let dst = Bitvec.create pats.count in
        eval_node_into t ~lookup id ~dst;
        sigs.(id) <- dst
      end)
    order;
  sigs
