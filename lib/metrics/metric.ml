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

let output_value sigs ~pattern =
  let v = ref 0 in
  for i = Array.length sigs - 1 downto 0 do
    v := (!v lsl 1) lor (if Bitvec.get sigs.(i) pattern then 1 else 0)
  done;
  !v

(* [f p word] for every sample [p] of [bv] in order, where bit 0 of [word]
   is sample [p]'s bit. *)
let iter_words bv ~samples f =
  let p = ref 0 in
  Bitvec.fold_words bv ~init:() ~f:(fun () word ->
      let stop = min samples (!p + Bitvec.bits_per_word) in
      let word = ref word in
      while !p < stop do
        f !p !word;
        word := !word lsr 1;
        incr p
      done)

(* {!output_value} of every sample, extracted word by word. *)
let sample_values sigs ~samples =
  let values = Array.make samples 0 in
  Array.iteri
    (fun i bv ->
      iter_words bv ~samples (fun p word ->
          values.(p) <- values.(p) lor ((word land 1) lsl i)))
    sigs;
  values

type prepared = {
  p_kind : kind;
  p_golden : Bitvec.t array;
  p_values : int array;  (* golden per-sample values (distance metrics) *)
  p_max_value : float;
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
  let m = Array.length golden in
  {
    p_kind = kind;
    p_golden = golden;
    p_values = values;
    p_max_value = float_of_int ((1 lsl min m 60) - 1);
    p_samples = samples;
  }

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
    let values = sample_values approx ~samples in
    for p = 0 to samples - 1 do
      let g = prep.p_values.(p) in
      let distance = float_of_int (abs (values.(p) - g)) in
      terms.(p) <-
        (match prep.p_kind with
         | Mred -> distance /. float_of_int (max 1 g)
         | Nmed | Med | Wce | Error_rate -> distance)
    done
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

let normalize prep ~samples total =
  if samples = 0 then 0.0
  else
    match prep.p_kind with
    | Error_rate -> total /. float_of_int samples
    | Nmed -> total /. float_of_int samples /. prep.p_max_value
    | Med | Mred -> total /. float_of_int samples
    | Wce -> total

(* WCE folds a running maximum: [Stdlib.max] specialized to the
   (non-NaN) float terms. *)
let max_term (acc : float) x = if acc >= x then acc else x

let select_total prep ~diff ~current ~flipped =
  match (current, flipped) with
  | Wrong cur, Wrong flip ->
    normalize prep ~samples:(Bitvec.length cur)
      (float_of_int (Bitvec.mux_popcount ~sel:diff flip cur))
  | Distance cur, Distance flip ->
    let samples = Array.length cur in
    let total = ref 0.0 in
    let term p word = if word land 1 = 1 then flip.(p) else cur.(p) in
    (match prep.p_kind with
     | Wce -> iter_words diff ~samples (fun p word -> total := max_term !total (term p word))
     | Error_rate | Nmed | Mred | Med ->
       iter_words diff ~samples (fun p word -> total := !total +. term p word));
    normalize prep ~samples !total
  | (Wrong _ | Distance _), (Wrong _ | Distance _) ->
    invalid_arg "Metric.select_total: terms of different kinds"

let total prep terms =
  select_total prep ~diff:(Bitvec.create prep.p_samples) ~current:terms ~flipped:terms

let measure_prepared prep ~approx = total prep (terms prep ~approx)

let measure kind ~golden ~approx = measure_prepared (prepare kind ~golden) ~approx
