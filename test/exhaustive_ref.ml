(* The per-vector exhaustive checker that Exhaustive replaced, kept as its
   oracle: input patterns built bit by bit for every chunk, every node's
   signature allocated per chunk by [Sim.run], and the output values read
   one vector at a time, with each metric's formula written out here.
   test_analysis "exhaustive oracle" compares the two field by field. *)

open Accals_network
module Bitvec = Accals_bitvec.Bitvec
module Exhaustive = Accals_analysis.Exhaustive

let max_inputs = 24

let chunk_bits = 13

(* Unsigned integer value of the outputs on one pattern (output 0 is the
   least significant bit). *)
let output_value sigs ~pattern =
  let v = ref 0 in
  for i = Array.length sigs - 1 downto 0 do
    v := (!v lsl 1) lor (if Bitvec.get sigs.(i) pattern then 1 else 0)
  done;
  !v

(* Patterns for the input-vector range [base, base + 2^chunk_bits). *)
let chunk_patterns k base =
  let count = 1 lsl min k chunk_bits in
  let by_input =
    Array.init k (fun i ->
        let bv = Bitvec.create count in
        for p = 0 to count - 1 do
          if (base + p) lsr i land 1 = 1 then Bitvec.set bv p true
        done;
        bv)
  in
  { Sim.count; by_input }

(* Per-chunk error tallies; chunks are independent, so they fan out over a
   pool and merge in chunk order. *)
type partial = {
  p_wrong : int;
  p_distance : float;
  p_relative : float;
  p_worst : int;
}

let compare_gen pool ~golden ~approx =
  let k = Array.length (Network.inputs golden) in
  if k > max_inputs then invalid_arg "Exhaustive: too many inputs";
  if Array.length (Network.inputs approx) <> k then
    invalid_arg "Exhaustive: input interface mismatch";
  let m = Array.length (Network.outputs golden) in
  if Array.length (Network.outputs approx) <> m then
    invalid_arg "Exhaustive: output interface mismatch";
  if m > 60 then invalid_arg "Exhaustive: more than 60 outputs";
  let golden_order = Structure.topo_order golden in
  let approx_order = Structure.topo_order approx in
  let total = 1 lsl k in
  let per_chunk = 1 lsl min k chunk_bits in
  let chunks = total / per_chunk in
  (* The chunk layout depends only on the input count, never on the pool
     size, so the merged result is identical for every [jobs]. *)
  let tally c =
    let patterns = chunk_patterns k (c * per_chunk) in
    let gs = Sim.run golden patterns ~order:golden_order in
    let asigs = Sim.run approx patterns ~order:approx_order in
    let gout = Array.map (fun id -> gs.(id)) (Network.outputs golden) in
    let aout = Array.map (fun id -> asigs.(id)) (Network.outputs approx) in
    let wrong = ref 0 in
    let distance_sum = ref 0.0 in
    let relative_sum = ref 0.0 in
    let worst = ref 0 in
    for p = 0 to per_chunk - 1 do
      let gv = output_value gout ~pattern:p in
      let av = output_value aout ~pattern:p in
      if gv <> av then begin
        incr wrong;
        let d = abs (av - gv) in
        distance_sum := !distance_sum +. float_of_int d;
        relative_sum := !relative_sum +. (float_of_int d /. float_of_int (max 1 gv));
        if d > !worst then worst := d
      end
    done;
    {
      p_wrong = !wrong;
      p_distance = !distance_sum;
      p_relative = !relative_sum;
      p_worst = !worst;
    }
  in
  let merge a b =
    {
      p_wrong = a.p_wrong + b.p_wrong;
      p_distance = a.p_distance +. b.p_distance;
      p_relative = a.p_relative +. b.p_relative;
      p_worst = max a.p_worst b.p_worst;
    }
  in
  let zero = { p_wrong = 0; p_distance = 0.0; p_relative = 0.0; p_worst = 0 } in
  let totals =
    match pool with
    | Some pool ->
      Accals_runtime.Fan_out.map_reduce ~label:"exhaustive" pool ~n:chunks
        ~map:tally ~merge ~init:zero
    | None ->
      let acc = ref zero in
      for c = 0 to chunks - 1 do
        acc := merge !acc (tally c)
      done;
      !acc
  in
  let wrong = ref totals.p_wrong in
  let distance_sum = ref totals.p_distance in
  let relative_sum = ref totals.p_relative in
  let worst = ref totals.p_worst in
  let n = float_of_int total in
  let max_value = float_of_int ((1 lsl m) - 1) in
  {
    Exhaustive.error_rate = float_of_int !wrong /. n;
    mean_error_distance = !distance_sum /. n;
    normalized_mean_error_distance = !distance_sum /. n /. max_value;
    mean_relative_error_distance = !relative_sum /. n;
    worst_case_error = float_of_int !worst;
    vectors = total;
  }

