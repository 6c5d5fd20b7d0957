module Bitvec = Accals_bitvec.Bitvec
module Metric = Accals_metrics.Metric

let checkf = Alcotest.(check (float 1e-9))

(* Build output signatures from explicit per-pattern integer values. *)
let sigs_of_values width values =
  let n = List.length values in
  let sigs = Array.init width (fun _ -> Bitvec.create n) in
  List.iteri
    (fun p v ->
      for b = 0 to width - 1 do
        if v lsr b land 1 = 1 then Bitvec.set sigs.(b) p true
      done)
    values;
  sigs

let test_er_basic () =
  let golden = sigs_of_values 4 [ 1; 2; 3; 4 ] in
  let approx = sigs_of_values 4 [ 1; 2; 5; 4 ] in
  checkf "one of four wrong" 0.25 (Metric.error_rate ~golden ~approx)

let test_er_identical () =
  let golden = sigs_of_values 4 [ 7; 0; 15; 9 ] in
  checkf "identical" 0.0 (Metric.error_rate ~golden ~approx:golden)

let test_er_all_wrong () =
  let golden = sigs_of_values 2 [ 0; 0; 0; 0 ] in
  let approx = sigs_of_values 2 [ 1; 2; 3; 1 ] in
  checkf "all wrong" 1.0 (Metric.error_rate ~golden ~approx)

let test_med () =
  let golden = sigs_of_values 4 [ 10; 5; 0; 8 ] in
  let approx = sigs_of_values 4 [ 8; 5; 1; 12 ] in
  (* distances 2,0,1,4 -> mean 1.75 *)
  checkf "med" 1.75 (Metric.med ~golden ~approx)

let test_nmed () =
  let golden = sigs_of_values 4 [ 10; 5; 0; 8 ] in
  let approx = sigs_of_values 4 [ 8; 5; 1; 12 ] in
  checkf "nmed" (1.75 /. 15.0) (Metric.nmed ~golden ~approx)

let test_mred () =
  let golden = sigs_of_values 4 [ 10; 5; 0; 8 ] in
  let approx = sigs_of_values 4 [ 8; 5; 1; 12 ] in
  (* relative: 2/10, 0/5, 1/max(1,0)=1, 4/8 -> mean (0.2+0+1+0.5)/4 *)
  checkf "mred" (1.7 /. 4.0) (Metric.mred ~golden ~approx)

let test_wce () =
  let golden = sigs_of_values 4 [ 10; 5; 0; 8 ] in
  let approx = sigs_of_values 4 [ 8; 5; 1; 12 ] in
  checkf "wce" 4.0 (Metric.worst_case_error ~golden ~approx)

let test_output_value () =
  let sigs = sigs_of_values 4 [ 13 ] in
  Alcotest.(check int) "value" 13 (Metric.output_value sigs ~pattern:0)

let test_kind_strings () =
  Alcotest.(check string) "er" "ER" (Metric.kind_to_string Metric.Error_rate);
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun k -> Metric.kind_of_string (Metric.kind_to_string k) = Some k)
       [ Metric.Error_rate; Metric.Nmed; Metric.Mred ]);
  Alcotest.(check bool) "unknown" true (Metric.kind_of_string "XYZ" = None)

let test_mismatch_rejected () =
  let golden = sigs_of_values 4 [ 1; 2 ] in
  let approx = sigs_of_values 3 [ 1; 2 ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Metric.error_rate ~golden ~approx); false
     with Invalid_argument _ -> true)

(* Properties *)

let gen_values = QCheck2.Gen.(pair (list_size (int_range 1 60) (int_range 0 255))
                                 (list_size (int_range 1 60) (int_range 0 255)))

let paired (la, lb) =
  let n = min (List.length la) (List.length lb) in
  let take l = List.filteri (fun i _ -> i < n) l in
  (take la, take lb)

let prop_er_bounds =
  Test_util.qcheck_case "ER in [0,1]" gen_values (fun pair ->
      let la, lb = paired pair in
      let g = sigs_of_values 8 la and a = sigs_of_values 8 lb in
      let er = Metric.error_rate ~golden:g ~approx:a in
      er >= 0.0 && er <= 1.0)

let prop_zero_iff_equal =
  Test_util.qcheck_case "metrics zero on identical" QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 255))
    (fun l ->
      let g = sigs_of_values 8 l in
      Metric.error_rate ~golden:g ~approx:g = 0.0
      && Metric.nmed ~golden:g ~approx:g = 0.0
      && Metric.mred ~golden:g ~approx:g = 0.0)

let prop_nmed_le_one =
  Test_util.qcheck_case "NMED in [0,1]" gen_values (fun pair ->
      let la, lb = paired pair in
      let g = sigs_of_values 8 la and a = sigs_of_values 8 lb in
      let v = Metric.nmed ~golden:g ~approx:a in
      v >= 0.0 && v <= 1.0)

let prop_er_symmetric =
  Test_util.qcheck_case "ER symmetric" gen_values (fun pair ->
      let la, lb = paired pair in
      let g = sigs_of_values 8 la and a = sigs_of_values 8 lb in
      Metric.error_rate ~golden:g ~approx:a = Metric.error_rate ~golden:a ~approx:g)

(* Per-sample terms. Random golden outputs, and two approximations of
   them ("current" and "flipped") that each differ on a sparse random
   subset of bits; a random selection mask mixes the two per sample. *)
let gen_terms_case =
  QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 1 60) (int_range 1 300))

let random_bits rng samples =
  let v = Bitvec.create samples in
  Bitvec.randomize rng v;
  v

let sparse_noise rng golden =
  Array.map
    (fun g ->
      let samples = Bitvec.length g in
      let noise = random_bits rng samples in
      Bitvec.logand_into noise (random_bits rng samples) ~dst:noise;
      Bitvec.logand_into noise (random_bits rng samples) ~dst:noise;
      Bitvec.logxor noise g)
    golden

let prop_select_total_bit_equal =
  Test_util.qcheck_case ~count:300 "select_total bit-equal to measure_prepared"
    gen_terms_case (fun (seed, width, samples) ->
      let rng = Accals_bitvec.Prng.create seed in
      let golden = Array.init width (fun _ -> random_bits rng samples) in
      let current = sparse_noise rng golden in
      let flipped = sparse_noise rng golden in
      let zeros = Bitvec.create samples in
      let ones = Bitvec.lognot zeros in
      let mixed = random_bits rng samples in
      let mux diff =
        Array.mapi
          (fun i c ->
            let dst = Bitvec.create samples in
            Bitvec.mux_into ~sel:diff flipped.(i) c ~dst;
            dst)
          current
      in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun kind ->
          let prep = Metric.prepare kind ~golden in
          let cur = Metric.terms prep ~approx:current in
          let flip = Metric.terms prep ~approx:flipped in
          List.for_all
            (fun diff ->
              let approx = mux diff in
              let selected = Metric.select_total prep ~diff ~current:cur ~flipped:flip in
              bits selected = bits (Metric.measure_prepared prep ~approx)
              && bits selected = bits (Metric.measure kind ~golden ~approx))
            [ zeros; ones; mixed ])
        Metric.[ Error_rate; Nmed; Mred; Med; Wce ])

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "ER basic" `Quick test_er_basic;
        Alcotest.test_case "ER identical" `Quick test_er_identical;
        Alcotest.test_case "ER all wrong" `Quick test_er_all_wrong;
        Alcotest.test_case "MED" `Quick test_med;
        Alcotest.test_case "NMED" `Quick test_nmed;
        Alcotest.test_case "MRED" `Quick test_mred;
        Alcotest.test_case "worst-case error" `Quick test_wce;
        Alcotest.test_case "output value" `Quick test_output_value;
        Alcotest.test_case "kind strings" `Quick test_kind_strings;
        Alcotest.test_case "mismatch rejected" `Quick test_mismatch_rejected;
        prop_er_bounds;
        prop_zero_iff_equal;
        prop_nmed_le_one;
        prop_er_symmetric;
        prop_select_total_bit_equal;
      ] );
  ]
