module Bitvec = Accals_bitvec.Bitvec

type kind = Error_rate | Nmed | Mred | Med | Wce

let kind_to_string = function
  | Error_rate -> "ER"
  | Nmed -> "NMED"
  | Mred -> "MRED"
  | Med -> "MED"
  | Wce -> "WCE"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "ER" -> Some Error_rate
  | "NMED" -> Some Nmed
  | "MRED" -> Some Mred
  | "MED" -> Some Med
  | "WCE" -> Some Wce
  | _ -> None

let check golden approx =
  if Array.length golden <> Array.length approx then
    invalid_arg "Metric: output count mismatch";
  if Array.length golden = 0 then invalid_arg "Metric: no outputs";
  let samples = Bitvec.length golden.(0) in
  Array.iter
    (fun bv -> if Bitvec.length bv <> samples then invalid_arg "Metric: length mismatch")
    golden;
  Array.iter
    (fun bv -> if Bitvec.length bv <> samples then invalid_arg "Metric: length mismatch")
    approx;
  samples

(* The unsigned value of the outputs on every sample (output 0 is the least
   significant bit), extracted word by word: the fold carries the word's
   first sample, so no closure runs per sample. *)
let sample_values_into sigs values =
  let samples = Array.length values in
  Array.fill values 0 samples 0;
  Array.iteri
    (fun i bv ->
      ignore
        (Bitvec.fold_words bv ~init:0 ~f:(fun first word ->
             let stop = min samples (first + Bitvec.bits_per_word) in
             for p = first to stop - 1 do
               values.(p) <- values.(p) lor (((word lsr (p - first)) land 1) lsl i)
             done;
             stop)
          : int))
    sigs

let sample_values sigs ~samples =
  let values = Array.make samples 0 in
  sample_values_into sigs values;
  values

let distance_terms_into kind ~golden ~approx terms =
  for p = 0 to Array.length golden - 1 do
    let g = golden.(p) in
    let distance = float_of_int (abs (approx.(p) - g)) in
    terms.(p) <-
      (match kind with
       | Mred -> distance /. float_of_int (max 1 g)
       | Nmed | Med | Wce | Error_rate -> distance)
  done

type prepared = {
  p_kind : kind;
  p_golden : Bitvec.t array;
  p_values : int array;  (* golden per-sample values (distance metrics) *)
  p_samples : int;
}

let prepare kind ~golden =
  let samples = if Array.length golden = 0 then 0 else Bitvec.length golden.(0) in
  let values =
    match kind with
    | Error_rate -> [||]
    | Nmed | Mred | Med | Wce ->
      if Array.length golden > 60 then invalid_arg "Metric.prepare: > 60 outputs";
      sample_values golden ~samples
  in
  { p_kind = kind; p_golden = golden; p_values = values; p_samples = samples }

(* Per-sample error terms. A metric is a fold of its terms in sample
   order, so a circuit whose outputs are, per sample, either those behind
   [current] or those behind [flipped] has the total of the per-sample
   selection of the two term sets. *)
type terms = Wrong of Bitvec.t | Distance of float array

let wrong_into prep ~approx wrong =
  ignore (check prep.p_golden approx : int);
  Bitvec.fill wrong false;
  Array.iteri (fun i g -> Bitvec.xor_or_into g approx.(i) ~dst:wrong) prep.p_golden

let terms_into prep ~approx dst =
  match (prep.p_kind, dst) with
  | Error_rate, Wrong wrong -> wrong_into prep ~approx wrong
  | (Nmed | Mred | Med | Wce), Distance terms ->
    let samples = check prep.p_golden approx in
    distance_terms_into prep.p_kind ~golden:prep.p_values
      ~approx:(sample_values approx ~samples) terms
  | (Error_rate | Nmed | Mred | Med | Wce), (Wrong _ | Distance _) ->
    invalid_arg "Metric.terms_into: terms of another kind"

let terms prep ~approx =
  let dst =
    match prep.p_kind with
    | Error_rate -> Wrong (Bitvec.create prep.p_samples)
    | Nmed | Mred | Med | Wce -> Distance (Array.make prep.p_samples 0.0)
  in
  terms_into prep ~approx dst;
  dst

let normalize kind ~outputs ~samples sum =
  if samples = 0 then 0.0
  else
    match kind with
    | Error_rate | Med | Mred -> sum /. float_of_int samples
    | Nmed -> sum /. float_of_int samples /. float_of_int ((1 lsl min outputs 60) - 1)
    | Wce -> sum

(* WCE folds a running maximum: [Stdlib.max] specialized to the
   (non-NaN) float terms. *)
let max_term (acc : float) x = if acc >= x then acc else x

(* The un-normalized fold, in sample order, of [flipped]'s terms on the
   samples set in [diff] and [current]'s elsewhere. *)
let fold kind ~diff ~current ~flipped =
  match (current, flipped) with
  | Wrong cur, Wrong flip -> float_of_int (Bitvec.mux_popcount ~sel:diff flip cur)
  | Distance cur, Distance flip ->
    let samples = Array.length cur in
    let wce = match kind with Wce -> true | Error_rate | Nmed | Mred | Med -> false in
    (* Word by word, like [sample_values]: no closure runs per sample. *)
    snd
      (Bitvec.fold_words diff ~init:(0, 0.0) ~f:(fun (first, total) word ->
           let total = ref total in
           for p = first to min samples (first + Bitvec.bits_per_word) - 1 do
             let term = if (word lsr (p - first)) land 1 = 1 then flip.(p) else cur.(p) in
             total := if wce then max_term !total term else !total +. term
           done;
           (first + Bitvec.bits_per_word, !total)))
  | (Wrong _ | Distance _), (Wrong _ | Distance _) ->
    invalid_arg "Metric: terms of different kinds"

let sum kind terms =
  let samples =
    match terms with Wrong w -> Bitvec.length w | Distance d -> Array.length d
  in
  fold kind ~diff:(Bitvec.create samples) ~current:terms ~flipped:terms

let normalize_prepared prep sum =
  normalize prep.p_kind ~outputs:(Array.length prep.p_golden) ~samples:prep.p_samples sum

let select_total prep ~diff ~current ~flipped =
  normalize_prepared prep (fold prep.p_kind ~diff ~current ~flipped)

let total prep terms = normalize_prepared prep (sum prep.p_kind terms)

let measure_prepared prep ~approx = total prep (terms prep ~approx)

let measure kind ~golden ~approx = measure_prepared (prepare kind ~golden) ~approx
