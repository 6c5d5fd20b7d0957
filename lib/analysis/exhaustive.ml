open Accals_network
module Bitvec = Accals_bitvec.Bitvec
module Metric = Accals_metrics.Metric

let max_inputs = 24

let chunk_bits = 13

type report = {
  error_rate : float;
  mean_error_distance : float;
  normalized_mean_error_distance : float;
  mean_relative_error_distance : float;
  worst_case_error : float;
  vectors : int;
}

(* One circuit simulated chunk after chunk into a buffer per live gate. *)
type sim = { net : Network.t; gates : int list (* topological *); sigs : Bitvec.t array }

let sim_create net ~count =
  let order = Array.to_list (Structure.topo_order net) in
  let gates = List.filter (fun id -> not (Network.is_input net id)) order in
  let sigs = Array.make (Network.num_nodes net) (Bitvec.create 0) in
  List.iter (fun id -> sigs.(id) <- Bitvec.create count) gates;
  { net; gates; sigs }

(* The output signatures over chunk [c], the vectors [c * 2^chunk_bits + p]:
   the low [chunk_bits] inputs enumerate [p] ([low]) the same way in every
   chunk, and input [i] above them is bit [i - chunk_bits] of [c], constant
   within the chunk ([ones] or [zeros]). *)
let simulate (low, zeros, ones) sim c =
  Array.iteri
    (fun i id ->
      sim.sigs.(id) <-
        (if i < chunk_bits then low.(i)
         else if (c lsr (i - chunk_bits)) land 1 = 1 then ones
         else zeros))
    (Network.inputs sim.net);
  let lookup id = sim.sigs.(id) in
  List.iter (fun id -> Sim.eval_node_into sim.net ~lookup id ~dst:sim.sigs.(id))
    sim.gates;
  Array.map lookup (Network.outputs sim.net)

(* A task's scratch, reused by every chunk it runs. *)
type state = {
  golden_sim : sim;
  approx_sim : sim;
  wrong_buf : Bitvec.t;
  golden_values : int array;
  approx_values : int array;
  distances : float array;
}

(* One chunk's (or a run of chunks') {!Metric.sum}s. *)
type sums = { wrong : float; distance : float; relative : float; worst : float }

let zero = { wrong = 0.0; distance = 0.0; relative = 0.0; worst = 0.0 }

let tally inputs st c =
  let golden = simulate inputs st.golden_sim c in
  let approx = simulate inputs st.approx_sim c in
  Metric.wrong_into (Metric.prepare Metric.Error_rate ~golden) ~approx st.wrong_buf;
  let wrong = Metric.sum Metric.Error_rate (Metric.Wrong st.wrong_buf) in
  (* One extraction of each side's per-sample values serves MRED, MED and
     WCE. *)
  Metric.sample_values_into golden st.golden_values;
  Metric.sample_values_into approx st.approx_values;
  let terms = Metric.Distance st.distances in
  let sum kind =
    Metric.distance_terms_into kind ~golden:st.golden_values
      ~approx:st.approx_values st.distances;
    Metric.sum kind terms
  in
  let relative = sum Metric.Mred in
  let distance = sum Metric.Med in
  (* WCE folds the MED terms still in [st.distances]. *)
  { wrong; distance; relative; worst = Metric.sum Metric.Wce terms }

let add a b =
  {
    wrong = a.wrong +. b.wrong;
    distance = a.distance +. b.distance;
    relative = a.relative +. b.relative;
    worst = Float.max a.worst b.worst;
  }

let compare_networks ?pool ~golden ~approx () =
  let k = Array.length (Network.inputs golden) in
  if k > max_inputs then invalid_arg "Exhaustive: too many inputs";
  if Array.length (Network.inputs approx) <> k then
    invalid_arg "Exhaustive: input interface mismatch";
  let m = Array.length (Network.outputs golden) in
  if Array.length (Network.outputs approx) <> m then
    invalid_arg "Exhaustive: output interface mismatch";
  if m > 60 then invalid_arg "Exhaustive: more than 60 outputs";
  let total = 1 lsl k in
  let per_chunk = 1 lsl min k chunk_bits in
  let zeros = Bitvec.create per_chunk in
  let low = (Sim.exhaustive (min k chunk_bits)).Sim.by_input in
  let inputs = (low, zeros, Bitvec.lognot zeros) in
  let state () =
    {
      golden_sim = sim_create golden ~count:per_chunk;
      approx_sim = sim_create approx ~count:per_chunk;
      wrong_buf = Bitvec.create per_chunk;
      golden_values = Array.make per_chunk 0;
      approx_values = Array.make per_chunk 0;
      distances = Array.make per_chunk 0.0;
    }
  in
  (* The chunk layout depends only on the input count, never on the pool
     size, and the sums fold in chunk order (vector order within a chunk),
     so the report is identical for every [jobs]. Without outputs nothing
     can differ, and there is nothing to simulate. *)
  let chunks = Array.init (if m = 0 then 0 else total / per_chunk) Fun.id in
  let sums =
    Array.fold_left add zero
      (match pool with
       | Some pool ->
         Accals_runtime.Fan_out.map_array_with ~label:"exhaustive" pool ~state
           ~f:(tally inputs) chunks
       | None -> Array.map (tally inputs (state ())) chunks)
  in
  let normalize kind sum = Metric.normalize kind ~outputs:m ~samples:total sum in
  {
    error_rate = normalize Metric.Error_rate sums.wrong;
    mean_error_distance = normalize Metric.Med sums.distance;
    normalized_mean_error_distance = normalize Metric.Nmed sums.distance;
    mean_relative_error_distance = normalize Metric.Mred sums.relative;
    worst_case_error = normalize Metric.Wce sums.worst;
    vectors = total;
  }

let value r = function
  | Metric.Error_rate -> r.error_rate
  | Metric.Med -> r.mean_error_distance
  | Metric.Nmed -> r.normalized_mean_error_distance
  | Metric.Mred -> r.mean_relative_error_distance
  | Metric.Wce -> r.worst_case_error
