module Metric = Accals_metrics.Metric
module Evaluate = Accals_esterr.Evaluate
module Exhaustive = Accals_analysis.Exhaustive
open Accals_network

type method_ = Exhaustive of int | Sampled of int

type outcome = {
  measured : float;
  method_ : method_;
  bound : float;
  certified : bool;
  rollback_steps : int;
}

let method_to_string = function
  | Exhaustive n -> Printf.sprintf "exhaustive:%d" n
  | Sampled n -> Printf.sprintf "sampled:%d" n

(* A fixed odd offset keeps the certification stream disjoint from every
   PRNG stream the synthesis loop draws (patterns use [seed], the engine
   uses [seed + 77]) while staying a pure function of the run seed. *)
let independent_seed seed = (seed * 2654435761) lxor 0x5DEECE66D

let measure ~golden ~approx ~metric ~seed ~samples =
  let n_inputs = Array.length (Network.inputs golden) in
  if n_inputs <= Exhaustive.max_inputs then begin
    let report = Exhaustive.compare_networks ~golden ~approx () in
    (Exhaustive.value report metric, Exhaustive report.Exhaustive.vectors)
  end
  else begin
    let patterns =
      Sim.random ~seed:(independent_seed seed) ~count:samples n_inputs
    in
    let golden_out = Evaluate.output_signatures golden patterns in
    let approx_out = Evaluate.output_signatures approx patterns in
    (Metric.measure metric ~golden:golden_out ~approx:approx_out, Sampled samples)
  end

let certify_with_rollback ~measure ~bound ~candidates ~on_violation =
  if candidates = [] then invalid_arg "Certify.certify_with_rollback";
  let rec attempt step = function
    | [] -> assert false
    | produce :: rest ->
      let circuit, sampled_error = produce () in
      let measured, method_ = measure circuit in
      if measured <= bound then
        ( { measured; method_; bound; certified = true; rollback_steps = step },
          circuit,
          sampled_error )
      else begin
        on_violation ~step ~measured;
        match rest with
        | [] ->
          (* Every candidate failed, including the caller's fallback: be
             honest and emit the last one uncertified. *)
          ( {
              measured;
              method_;
              bound;
              certified = false;
              rollback_steps = step;
            },
            circuit,
            sampled_error )
        | _ -> attempt (step + 1) rest
      end
  in
  attempt 0 candidates
