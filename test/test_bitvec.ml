module Bitvec = Accals_bitvec.Bitvec
module Prng = Accals_bitvec.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_zero () =
  let v = Bitvec.create 100 in
  check_int "length" 100 (Bitvec.length v);
  check_int "popcount" 0 (Bitvec.popcount v);
  check "is_zero" true (Bitvec.is_zero v)

let test_set_get () =
  let v = Bitvec.create 130 in
  Bitvec.set v 0 true;
  Bitvec.set v 61 true;
  Bitvec.set v 62 true;
  Bitvec.set v 129 true;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 1" false (Bitvec.get v 1);
  check "bit 61" true (Bitvec.get v 61);
  check "bit 62" true (Bitvec.get v 62);
  check "bit 129" true (Bitvec.get v 129);
  check_int "popcount" 4 (Bitvec.popcount v);
  Bitvec.set v 61 false;
  check "cleared" false (Bitvec.get v 61);
  check_int "popcount after clear" 3 (Bitvec.popcount v)

let test_fill () =
  let v = Bitvec.create 65 in
  Bitvec.fill v true;
  check_int "all ones" 65 (Bitvec.popcount v);
  Bitvec.fill v false;
  check_int "all zero" 0 (Bitvec.popcount v)

let test_fill_word_boundary () =
  let v = Bitvec.create 124 in
  (* exactly two words *)
  Bitvec.fill v true;
  check_int "all ones at boundary" 124 (Bitvec.popcount v)

let test_lognot_padding () =
  let v = Bitvec.create 70 in
  let n = Bitvec.lognot v in
  check_int "not of zero" 70 (Bitvec.popcount n);
  let nn = Bitvec.lognot n in
  check "double negation" true (Bitvec.is_zero nn)

let test_equal () =
  let a = Bitvec.create 90 and b = Bitvec.create 90 in
  Bitvec.set a 3 true;
  check "different" false (Bitvec.equal a b);
  Bitvec.set b 3 true;
  check "equal" true (Bitvec.equal a b)

let test_hamming () =
  let a = Bitvec.create 200 and b = Bitvec.create 200 in
  Bitvec.set a 0 true;
  Bitvec.set a 199 true;
  Bitvec.set b 199 true;
  Bitvec.set b 100 true;
  check_int "hamming" 2 (Bitvec.hamming a b)

let test_blit_copy () =
  let a = Bitvec.create 64 in
  Bitvec.set a 10 true;
  let b = Bitvec.copy a in
  check "copy equal" true (Bitvec.equal a b);
  Bitvec.set b 11 true;
  check "copy independent" false (Bitvec.equal a b);
  let c = Bitvec.create 64 in
  Bitvec.blit ~src:b ~dst:c;
  check "blit equal" true (Bitvec.equal b c)

let test_mux () =
  let n = 64 in
  let sel = Bitvec.create n and a = Bitvec.create n and b = Bitvec.create n in
  let dst = Bitvec.create n in
  Bitvec.set sel 1 true;
  Bitvec.fill a true;
  (* dst = sel ? a : b = sel *)
  Bitvec.mux_into ~sel a b ~dst;
  check "mux selects a" true (Bitvec.equal dst sel)

let test_iter_set () =
  let v = Bitvec.create 200 in
  let expected = [ 0; 5; 61; 62; 63; 124; 199 ] in
  List.iter (fun i -> Bitvec.set v i true) expected;
  let seen = ref [] in
  Bitvec.iter_set v (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter_set ascending" expected (List.rev !seen)

let test_bool_array_roundtrip () =
  let a = Array.init 77 (fun i -> i mod 3 = 0) in
  let v = Bitvec.of_bool_array a in
  Alcotest.(check (array bool)) "roundtrip" a (Bitvec.to_bool_array v)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.bits62 a) (Prng.bits62 b)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    check "in range" true (v >= 0 && v < 10)
  done

let test_prng_float_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    check "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* Property tests *)

let gen_bits = QCheck2.Gen.(list_size (int_range 1 300) bool)

let vec_of_list l = Bitvec.of_bool_array (Array.of_list l)

let prop_demorgan =
  Test_util.qcheck_case "demorgan" QCheck2.Gen.(pair gen_bits gen_bits)
    (fun (la, lb) ->
      let n = min (List.length la) (List.length lb) in
      let trim l = Array.of_list (List.filteri (fun i _ -> i < n) l) in
      let a = Bitvec.of_bool_array (trim la) and b = Bitvec.of_bool_array (trim lb) in
      Bitvec.equal
        (Bitvec.lognot (Bitvec.logand a b))
        (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)))

let prop_xor_self =
  Test_util.qcheck_case "xor with self is zero" gen_bits (fun l ->
      let v = vec_of_list l in
      Bitvec.is_zero (Bitvec.logxor v v))

let prop_popcount_matches =
  Test_util.qcheck_case "popcount matches list count" gen_bits (fun l ->
      Bitvec.popcount (vec_of_list l) = List.length (List.filter (fun b -> b) l))

let prop_hamming_triangle =
  Test_util.qcheck_case "hamming = popcount of xor" QCheck2.Gen.(pair gen_bits gen_bits)
    (fun (la, lb) ->
      let n = min (List.length la) (List.length lb) in
      let trim l = Array.of_list (List.filteri (fun i _ -> i < n) l) in
      let a = Bitvec.of_bool_array (trim la) and b = Bitvec.of_bool_array (trim lb) in
      Bitvec.hamming a b = Bitvec.popcount (Bitvec.logxor a b))

let prop_get_after_of_bool_array =
  Test_util.qcheck_case "get matches source list" gen_bits (fun l ->
      let v = vec_of_list l in
      List.for_all (fun i -> Bitvec.get v i = List.nth l i)
        (List.init (List.length l) (fun i -> i)))

(* Fused kernels against the compositions they replace, at lengths that
   put the tail mask on a short, an exactly full and a one-bit last word.
   Vectors are uniform, sparse (an AND of two), dense (an OR of two),
   all-zero or all-one. *)

let kernel_lengths = [ 1; 61; 62; 63; 124; 2048 ]

let gen_vectors = QCheck2.Gen.(pair (oneofl kernel_lengths) (int_bound 1_000_000))

let vectors (len, seed) n =
  let rng = Prng.create seed in
  let random () =
    let v = Bitvec.create len in
    Bitvec.randomize rng v;
    v
  in
  let constant b =
    let v = Bitvec.create len in
    Bitvec.fill v b;
    v
  in
  Array.init n (fun i ->
      match (seed + i) mod 5 with
      | 0 -> random ()
      | 1 -> Bitvec.logand (random ()) (random ())
      | 2 -> Bitvec.logor (random ()) (random ())
      | 3 -> constant false
      | _ -> constant true)

let kernel_case name n prop =
  Test_util.qcheck_case ~count:60 name gen_vectors (fun g -> prop (vectors g n))

(* The 16-bit table popcount the SWAR kernel replaced. *)
let table_popcount =
  let table = Array.init 65536 (fun i ->
      let rec count v = if v = 0 then 0 else (v land 1) + count (v lsr 1) in
      count i)
  in
  fun v ->
    Bitvec.fold_words v ~init:0 ~f:(fun acc w ->
        acc + table.(w land 0xffff) + table.(w lsr 16 land 0xffff)
        + table.(w lsr 32 land 0xffff) + table.(w lsr 48 land 0xffff))

let prop_popcount_table =
  kernel_case "swar popcount matches the table" 1 (fun v ->
      Bitvec.popcount v.(0) = table_popcount v.(0))

let prop_and_popcount =
  kernel_case "and_popcount" 2 (fun v ->
      Bitvec.and_popcount v.(0) v.(1) = Bitvec.popcount (Bitvec.logand v.(0) v.(1)))

let prop_masked_kernels =
  kernel_case "masked kernels" 5 (fun v ->
      let m = v.(0) and t = v.(1) and a = v.(2) and b = v.(3) and c = v.(4) in
      let masked g = Bitvec.popcount (Bitvec.logand m (Bitvec.logxor t g)) in
      let mux = Bitvec.create (Bitvec.length t) in
      Bitvec.mux_into ~sel:a b c ~dst:mux;
      Bitvec.masked_hamming m t a = masked a
      && Bitvec.masked_hamming_and m t a b = masked (Bitvec.logand a b)
      && Bitvec.masked_hamming_or m t a b = masked (Bitvec.logor a b)
      && Bitvec.masked_hamming_xor m t a b = masked (Bitvec.logxor a b)
      && Bitvec.masked_hamming_and3 m t a b c
         = masked (Bitvec.logand (Bitvec.logand a b) c)
      && Bitvec.masked_hamming_or3 m t a b c
         = masked (Bitvec.logor (Bitvec.logor a b) c)
      && Bitvec.masked_hamming_xor3 m t a b c
         = masked (Bitvec.logxor (Bitvec.logxor a b) c)
      && Bitvec.masked_hamming_mux m t ~sel:a b c = masked mux)

(* Every C counting kernel against the OCaml loop it replaced
   (bitvec_ref.ml). CI reruns these 100 times longer. *)
let oracle_case name n prop =
  Test_util.qcheck_case ~count:200 ~long_factor:100 ("kernel oracle: " ^ name)
    gen_vectors (fun g -> prop (vectors g n))

let prop_oracle_counts =
  oracle_case "popcount, hamming, and_popcount, mux_popcount" 3 (fun v ->
      let a = v.(0) and b = v.(1) and c = v.(2) in
      Bitvec.popcount a = Bitvec_ref.popcount a
      && Bitvec.hamming a b = Bitvec_ref.hamming a b
      && Bitvec.and_popcount a b = Bitvec_ref.and_popcount a b
      && Bitvec.mux_popcount ~sel:a b c = Bitvec_ref.mux_popcount ~sel:a b c)

let prop_oracle_hamming_ops =
  oracle_case "hamming_*" 4 (fun v ->
      let t = v.(0) and a = v.(1) and b = v.(2) and c = v.(3) in
      Bitvec.hamming_and t a b = Bitvec_ref.hamming_and t a b
      && Bitvec.hamming_or t a b = Bitvec_ref.hamming_or t a b
      && Bitvec.hamming_xor t a b = Bitvec_ref.hamming_xor t a b
      && Bitvec.hamming_and3 t a b c = Bitvec_ref.hamming_and3 t a b c
      && Bitvec.hamming_or3 t a b c = Bitvec_ref.hamming_or3 t a b c
      && Bitvec.hamming_xor3 t a b c = Bitvec_ref.hamming_xor3 t a b c
      && Bitvec.hamming_mux t ~sel:a b c = Bitvec_ref.hamming_mux t ~sel:a b c)

let prop_oracle_masked =
  oracle_case "masked_hamming_*" 5 (fun v ->
      let m = v.(0) and t = v.(1) and a = v.(2) and b = v.(3) and c = v.(4) in
      Bitvec.masked_hamming m t a = Bitvec_ref.masked_hamming m t a
      && Bitvec.masked_hamming_and m t a b = Bitvec_ref.masked_hamming_and m t a b
      && Bitvec.masked_hamming_or m t a b = Bitvec_ref.masked_hamming_or m t a b
      && Bitvec.masked_hamming_xor m t a b = Bitvec_ref.masked_hamming_xor m t a b
      && Bitvec.masked_hamming_and3 m t a b c = Bitvec_ref.masked_hamming_and3 m t a b c
      && Bitvec.masked_hamming_or3 m t a b c = Bitvec_ref.masked_hamming_or3 m t a b c
      && Bitvec.masked_hamming_xor3 m t a b c = Bitvec_ref.masked_hamming_xor3 m t a b c
      && Bitvec.masked_hamming_mux m t ~sel:a b c
         = Bitvec_ref.masked_hamming_mux m t ~sel:a b c)

let prop_hamming_ops =
  kernel_case "op hamming kernels" 4 (fun v ->
      let t = v.(0) and a = v.(1) and b = v.(2) and c = v.(3) in
      let mux = Bitvec.create (Bitvec.length t) in
      Bitvec.mux_into ~sel:a b c ~dst:mux;
      Bitvec.hamming_and t a b = Bitvec.hamming t (Bitvec.logand a b)
      && Bitvec.hamming_or t a b = Bitvec.hamming t (Bitvec.logor a b)
      && Bitvec.hamming_xor t a b = Bitvec.hamming t (Bitvec.logxor a b)
      && Bitvec.hamming_and3 t a b c
         = Bitvec.hamming t (Bitvec.logand (Bitvec.logand a b) c)
      && Bitvec.hamming_or3 t a b c
         = Bitvec.hamming t (Bitvec.logor (Bitvec.logor a b) c)
      && Bitvec.hamming_xor3 t a b c
         = Bitvec.hamming t (Bitvec.logxor (Bitvec.logxor a b) c)
      && Bitvec.hamming_mux t ~sel:a b c = Bitvec.hamming t mux)

let prop_xor_or_into =
  kernel_case "xor_or_into" 3 (fun v ->
      let dst = Bitvec.copy v.(2) in
      Bitvec.xor_or_into v.(0) v.(1) ~dst;
      Bitvec.equal dst (Bitvec.logor v.(2) (Bitvec.logxor v.(0) v.(1))))

let prop_not_prefix_word =
  kernel_case "not_prefix_word" 1 (fun v ->
      Bitvec.not_prefix_word v.(0) = Bitvec.prefix_word (Bitvec.lognot v.(0)))

let prop_into_ops =
  kernel_case "in-place ops match bool arrays" 2 (fun v ->
      let a = Bitvec.to_bool_array v.(0) and b = Bitvec.to_bool_array v.(1) in
      let dst = Bitvec.create (Bitvec.length v.(0)) in
      let agrees into op =
        into v.(0) v.(1) ~dst;
        Bitvec.equal dst (Bitvec.of_bool_array (Array.map2 op a b))
      in
      agrees Bitvec.logand_into ( && )
      && agrees Bitvec.logor_into ( || )
      && agrees Bitvec.logxor_into ( <> ))

let prop_iter_set =
  kernel_case "iter_set lists the set bits" 1 (fun v ->
      let seen = ref [] in
      Bitvec.iter_set v.(0) (fun i -> seen := i :: !seen);
      List.rev !seen
      = List.filter (Bitvec.get v.(0)) (List.init (Bitvec.length v.(0)) Fun.id))

let suite =
  [
    ( "bitvec",
      [
        Alcotest.test_case "create zero" `Quick test_create_zero;
        Alcotest.test_case "set/get across words" `Quick test_set_get;
        Alcotest.test_case "fill" `Quick test_fill;
        Alcotest.test_case "fill at word boundary" `Quick test_fill_word_boundary;
        Alcotest.test_case "lognot keeps padding zero" `Quick test_lognot_padding;
        Alcotest.test_case "equal" `Quick test_equal;
        Alcotest.test_case "hamming" `Quick test_hamming;
        Alcotest.test_case "blit and copy" `Quick test_blit_copy;
        Alcotest.test_case "mux" `Quick test_mux;
        Alcotest.test_case "iter_set" `Quick test_iter_set;
        Alcotest.test_case "bool array roundtrip" `Quick test_bool_array_roundtrip;
        prop_demorgan;
        prop_xor_self;
        prop_popcount_matches;
        prop_hamming_triangle;
        prop_get_after_of_bool_array;
        prop_popcount_table;
        prop_and_popcount;
        prop_masked_kernels;
        prop_oracle_counts;
        prop_oracle_hamming_ops;
        prop_oracle_masked;
        prop_hamming_ops;
        prop_xor_or_into;
        prop_not_prefix_word;
        prop_into_ops;
        prop_iter_set;
      ] );
    ( "prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "int bounds" `Quick test_prng_bounds;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
      ] );
  ]
