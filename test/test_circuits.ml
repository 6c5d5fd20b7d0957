open Accals_network
open Accals_circuits

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- adders --- *)

let adder_env a b cin width =
  Test_util.bus_env "a" a width
  @ Test_util.bus_env "b" b width
  @ [ ("cin", cin) ]

let adder_result net outs width =
  let s = Test_util.out_int ~prefix:"s" net outs in
  let cout_idx =
    let names = Network.output_names net in
    let rec find i = if names.(i) = "cout" then i else find (i + 1) in
    find 0
  in
  s lor (if outs.(cout_idx) then 1 lsl width else 0)

let check_adder make width cases =
  let net = make ~width in
  List.iter
    (fun (a, b, cin) ->
      let outs = Test_util.eval_named net (adder_env a b cin width) in
      let expected = a + b + if cin then 1 else 0 in
      check_int
        (Printf.sprintf "%d+%d+%b" a b cin)
        expected
        (adder_result net outs width))
    cases

let mask w = (1 lsl w) - 1

let random_adder_cases width n =
  let rng = Accals_bitvec.Prng.create 77 in
  List.init n (fun _ ->
      ( Accals_bitvec.Prng.int rng (mask width + 1),
        Accals_bitvec.Prng.int rng (mask width + 1),
        Accals_bitvec.Prng.bool rng ))

let fixed_cases width =
  [ (0, 0, false); (mask width, 1, false); (mask width, mask width, true);
    (1, 0, true); (mask width / 2, mask width / 2, false) ]

let test_ripple () = check_adder Adders.ripple_carry 8 (fixed_cases 8)
let test_ripple_random () =
  check_adder Adders.ripple_carry 16 (random_adder_cases 16 40)

let test_cla () = check_adder Adders.carry_lookahead 8 (fixed_cases 8)
let test_cla_random () =
  check_adder Adders.carry_lookahead 16 (random_adder_cases 16 40)
let test_cla_odd_width () = check_adder Adders.carry_lookahead 10 (fixed_cases 10)

let test_ksa () = check_adder Adders.kogge_stone 8 (fixed_cases 8)
let test_ksa_random () =
  check_adder Adders.kogge_stone 16 (random_adder_cases 16 40)
let test_ksa_width32 () =
  check_adder Adders.kogge_stone 32 (random_adder_cases 32 10)

(* Adders agree with each other exhaustively at small width. *)
let test_adders_agree_exhaustive () =
  let nets =
    [ Adders.ripple_carry ~width:4; Adders.carry_lookahead ~width:4;
      Adders.kogge_stone ~width:4 ]
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      List.iter
        (fun net ->
          let outs = Test_util.eval_named net (adder_env a b false 4) in
          check_int "agree" (a + b) (adder_result net outs 4))
        nets
    done
  done

(* --- multipliers --- *)

let mult_env a b width =
  Test_util.bus_env "a" a width @ Test_util.bus_env "b" b width

let check_mult make width cases =
  let net = make ~width in
  List.iter
    (fun (a, b) ->
      let outs = Test_util.eval_named net (mult_env a b width) in
      check_int (Printf.sprintf "%d*%d" a b) (a * b)
        (Test_util.out_int ~prefix:"p" net outs))
    cases

let random_pairs width n =
  let rng = Accals_bitvec.Prng.create 99 in
  List.init n (fun _ ->
      (Accals_bitvec.Prng.int rng (mask width + 1),
       Accals_bitvec.Prng.int rng (mask width + 1)))

let test_array_mult_exhaustive4 () =
  let net = Multipliers.array_multiplier ~width:4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let outs = Test_util.eval_named net (mult_env a b 4) in
      check_int "array mult" (a * b) (Test_util.out_int ~prefix:"p" net outs)
    done
  done

let test_wallace_exhaustive4 () =
  let net = Multipliers.wallace ~width:4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let outs = Test_util.eval_named net (mult_env a b 4) in
      check_int "wallace" (a * b) (Test_util.out_int ~prefix:"p" net outs)
    done
  done

let test_array_mult8_random () =
  check_mult Multipliers.array_multiplier 8 (random_pairs 8 30)

let test_wallace8_random () = check_mult Multipliers.wallace 8 (random_pairs 8 30)

let test_square () =
  let net = Multipliers.square ~width:6 in
  for a = 0 to 63 do
    let outs = Test_util.eval_named net (Test_util.bus_env "a" a 6) in
    check_int "square" (a * a) (Test_util.out_int ~prefix:"p" net outs)
  done

(* --- divider --- *)

let test_divider () =
  let net = Divider.restoring ~dividend_width:8 ~divisor_width:4 in
  for n = 0 to 255 do
    for d = 1 to 15 do
      let env = Test_util.bus_env "n" n 8 @ Test_util.bus_env "d" d 4 in
      let outs = Test_util.eval_named net env in
      check_int (Printf.sprintf "%d/%d q" n d) (n / d)
        (Test_util.out_int ~prefix:"q" net outs);
      check_int (Printf.sprintf "%d mod %d" n d) (n mod d)
        (Test_util.out_int ~prefix:"r" net outs)
    done
  done

let test_divider_by_zero_total () =
  let net = Divider.restoring ~dividend_width:8 ~divisor_width:4 in
  let env = Test_util.bus_env "n" 100 8 @ Test_util.bus_env "d" 0 4 in
  let outs = Test_util.eval_named net env in
  check_int "q all ones" 255 (Test_util.out_int ~prefix:"q" net outs)

(* --- sqrt --- *)

let test_sqrt () =
  let net = Unary_fns.sqrt_restoring ~width:12 in
  let rng = Accals_bitvec.Prng.create 3 in
  for _ = 1 to 200 do
    let x = Accals_bitvec.Prng.int rng 4096 in
    let outs = Test_util.eval_named net (Test_util.bus_env "x" x 12) in
    let r = Test_util.out_int ~prefix:"r" net outs in
    let m = Test_util.out_int ~prefix:"m" net outs in
    check_int (Printf.sprintf "isqrt %d" x) (int_of_float (sqrt (float_of_int x))) r;
    check_int (Printf.sprintf "rem %d" x) (x - (r * r)) m
  done

let test_sqrt_exhaustive_small () =
  let net = Unary_fns.sqrt_restoring ~width:8 in
  for x = 0 to 255 do
    let outs = Test_util.eval_named net (Test_util.bus_env "x" x 8) in
    let r = Test_util.out_int ~prefix:"r" net outs in
    check "floor sqrt" true (r * r <= x && (r + 1) * (r + 1) > x)
  done

(* --- log2 --- *)

let test_log2 () =
  let net = Unary_fns.log2 ~width:16 ~fraction_bits:4 in
  let rng = Accals_bitvec.Prng.create 4 in
  for _ = 1 to 200 do
    let x = 1 + Accals_bitvec.Prng.int rng 65535 in
    let outs = Test_util.eval_named net (Test_util.bus_env "x" x 16) in
    let e = Test_util.out_int ~prefix:"e" net outs in
    let expected_e =
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
      go 0 x
    in
    check_int (Printf.sprintf "log2 %d" x) expected_e e;
    (* fraction = bits right after the leading one *)
    let f = Test_util.out_int ~prefix:"f" net outs in
    let normalized = x lsl (15 - expected_e) in
    let expected_f = normalized lsr 11 land 15 in
    check_int (Printf.sprintf "frac %d" x) expected_f f
  done

let test_log2_zero_invalid () =
  let net = Unary_fns.log2 ~width:16 ~fraction_bits:4 in
  let outs = Test_util.eval_named net (Test_util.bus_env "x" 0 16) in
  let names = Network.output_names net in
  let valid_idx =
    let rec find i = if names.(i) = "valid" then i else find (i + 1) in
    find 0
  in
  check "invalid on zero" false outs.(valid_idx)

(* --- sin --- *)

let test_sin_parabola () =
  let width = 8 in
  let net = Unary_fns.sin_parabola ~width in
  for x = 0 to 255 do
    let outs = Test_util.eval_named net (Test_util.bus_env "x" x width) in
    let y = Test_util.out_int ~prefix:"y" net outs in
    (* Matches the spec y = floor(4 * x * (2^w - 1 - x) / 2^w) *)
    let product = x * (255 - x) in
    let expected = product * 4 / 256 mod 256 in
    check_int (Printf.sprintf "sin %d" x) expected y
  done

(* --- alu --- *)

let alu_env a b op width sel_bits =
  Test_util.bus_env "a" a width
  @ Test_util.bus_env "b" b width
  @ Test_util.bus_env "op" op sel_bits

let test_alu8_ops () =
  let width = 8 in
  let net = Alu.make ~width ~name:"alu_test" () in
  let rng = Accals_bitvec.Prng.create 12 in
  let sign_bit = 1 lsl (width - 1) in
  let to_signed v = if v land sign_bit <> 0 then v - (1 lsl width) else v in
  for _ = 1 to 100 do
    let a = Accals_bitvec.Prng.int rng 256 in
    let b = Accals_bitvec.Prng.int rng 256 in
    let op = Accals_bitvec.Prng.int rng 8 in
    let outs = Test_util.eval_named net (alu_env a b op width 3) in
    let r = Test_util.out_int ~prefix:"r" net outs in
    let expected =
      match op with
      | 0 -> a land b
      | 1 -> a lor b
      | 2 -> a lxor b
      | 3 -> lnot (a lor b) land 255
      | 4 -> (a + b) land 255
      | 5 -> (a - b) land 255
      | 6 -> if to_signed a < to_signed b then 1 else 0
      | _ -> b
    in
    check_int (Printf.sprintf "alu op%d %d %d" op a b) expected r
  done

let test_alu_zero_flag () =
  let net = Alu.make ~width:8 ~name:"alu_test" () in
  let outs = Test_util.eval_named net (alu_env 0 0 0 8 3) in
  let names = Network.output_names net in
  let zero_idx =
    let rec find i = if names.(i) = "zero" then i else find (i + 1) in
    find 0
  in
  check "zero flag" true outs.(zero_idx)

let test_alu4_ops () =
  let net = Alu.make ~width:4 ~ops:4 ~name:"alu2_test" () in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for op = 0 to 3 do
        let outs = Test_util.eval_named net (alu_env a b op 4 2) in
        let r = Test_util.out_int ~prefix:"r" net outs in
        let expected =
          match op with
          | 0 -> a land b
          | 1 -> a lor b
          | 2 -> (a + b) land 15
          | _ -> (a - b) land 15
        in
        check_int "alu4" expected r
      done
    done
  done

(* --- ECC --- *)

let encode_hamming data_bits data =
  (* Reference software encoder matching Ecc's layout. *)
  let r = Ecc.check_bit_count data_bits in
  let total = data_bits + r in
  let word = Array.make (total + 1) false in
  let d = ref 0 in
  for pos = 1 to total do
    if pos land (pos - 1) <> 0 then begin
      word.(pos) <- data lsr !d land 1 = 1;
      incr d
    end
  done;
  for i = 0 to r - 1 do
    let parity = ref false in
    for pos = 1 to total do
      if pos lsr i land 1 = 1 && pos <> 1 lsl i then
        if word.(pos) then parity := not !parity
    done;
    word.(1 lsl i) <- !parity
  done;
  let checks = Array.init r (fun i -> word.(1 lsl i)) in
  let overall = Array.fold_left (fun acc b -> acc <> b) false word in
  (word, checks, overall)

let ecc_env data_bits data checks pall =
  Test_util.bus_env "d" data data_bits
  @ List.mapi (fun i b -> (Printf.sprintf "c%d" i, b)) (Array.to_list checks)
  @ [ ("pall", pall) ]

let test_ecc_no_error () =
  let data_bits = 8 in
  let net = Ecc.secded_decoder ~data_bits in
  let rng = Accals_bitvec.Prng.create 21 in
  for _ = 1 to 50 do
    let data = Accals_bitvec.Prng.int rng 256 in
    let _, checks, overall = encode_hamming data_bits data in
    let outs = Test_util.eval_named net (ecc_env data_bits data checks overall) in
    check_int "data passes" data (Test_util.out_int ~prefix:"q" net outs);
    let names = Network.output_names net in
    Array.iteri
      (fun i nm ->
        if nm = "single_err" || nm = "double_err" then
          check (nm ^ " clear") false outs.(i))
      names
  done

let test_ecc_single_error_corrected () =
  let data_bits = 8 in
  let net = Ecc.secded_decoder ~data_bits in
  let rng = Accals_bitvec.Prng.create 22 in
  for _ = 1 to 50 do
    let data = Accals_bitvec.Prng.int rng 256 in
    let _, checks, overall = encode_hamming data_bits data in
    (* Flip one data bit. *)
    let flip = Accals_bitvec.Prng.int rng data_bits in
    let corrupted = data lxor (1 lsl flip) in
    let outs = Test_util.eval_named net (ecc_env data_bits corrupted checks overall) in
    check_int "corrected" data (Test_util.out_int ~prefix:"q" net outs)
  done

(* --- random logic / pla --- *)

let test_random_logic_deterministic () =
  let a = Random_logic.make ~name:"r" ~inputs:8 ~outputs:4 ~gates:60 ~seed:5 in
  let b = Random_logic.make ~name:"r" ~inputs:8 ~outputs:4 ~gates:60 ~seed:5 in
  for v = 0 to 255 do
    let ins = Test_util.bits_of_int v 8 in
    Alcotest.(check (array bool)) "same function" (Network.eval a ins) (Network.eval b ins)
  done

let test_random_logic_valid () =
  let t = Random_logic.make ~name:"r" ~inputs:10 ~outputs:6 ~gates:200 ~seed:9 in
  Network.validate t;
  check_int "outputs" 6 (Array.length (Network.outputs t))

let test_pla_valid () =
  let t = Random_logic.pla ~name:"p" ~inputs:12 ~outputs:5 ~terms:30 ~seed:3 in
  Network.validate t;
  check_int "outputs" 5 (Array.length (Network.outputs t))

(* --- bench suite --- *)

let test_bench_suite_all_load () =
  List.iter
    (fun (name, _) ->
      let t = Bench_suite.load name in
      Network.validate t;
      check (name ^ " nonempty") true (Cost.area t > 0.0))
    Bench_suite.all

(* Loading is deterministic: the daemon resolves a repeat circuit name to
   the digest its first load gave, without loading it again.  The large
   synthetic circuits are left out for time. *)
let test_bench_suite_load_deterministic () =
  List.iter
    (fun (name, _) ->
      if not (List.mem name [ "synth10k"; "synth30k"; "synth100k" ]) then
        Alcotest.(check string)
          (name ^ " digest") (Network.digest (Bench_suite.load name))
          (Network.digest (Bench_suite.load name)))
    Bench_suite.all

let test_bench_suite_load_preserves_rca () =
  let raw = Bench_suite.build "rca32" in
  let opt = Bench_suite.load "rca32" in
  let rng = Accals_bitvec.Prng.create 8 in
  for _ = 1 to 20 do
    let v = Array.init (Array.length (Network.inputs raw)) (fun _ ->
        Accals_bitvec.Prng.bool rng)
    in
    Alcotest.(check (array bool)) "same" (Network.eval raw v) (Network.eval opt v)
  done

let test_bench_suite_unknown () =
  check "unknown raises" true
    (try ignore (Bench_suite.build "nonesuch"); false with Not_found -> true)

let test_bench_categories () =
  check_int "iscas group" 9 (List.length (Bench_suite.category_circuits Bench_suite.Iscas_small));
  check_int "epfl group" 5 (List.length (Bench_suite.category_circuits Bench_suite.Epfl));
  check_int "lgsynt group" 4 (List.length (Bench_suite.category_circuits Bench_suite.Lgsynt91))

let suite =
  [
    ( "adders",
      [
        Alcotest.test_case "ripple fixed" `Quick test_ripple;
        Alcotest.test_case "ripple random 16" `Quick test_ripple_random;
        Alcotest.test_case "cla fixed" `Quick test_cla;
        Alcotest.test_case "cla random 16" `Quick test_cla_random;
        Alcotest.test_case "cla odd width" `Quick test_cla_odd_width;
        Alcotest.test_case "kogge-stone fixed" `Quick test_ksa;
        Alcotest.test_case "kogge-stone random 16" `Quick test_ksa_random;
        Alcotest.test_case "kogge-stone width 32" `Quick test_ksa_width32;
        Alcotest.test_case "all agree exhaustive w4" `Slow test_adders_agree_exhaustive;
      ] );
    ( "multipliers",
      [
        Alcotest.test_case "array exhaustive w4" `Quick test_array_mult_exhaustive4;
        Alcotest.test_case "wallace exhaustive w4" `Quick test_wallace_exhaustive4;
        Alcotest.test_case "array random w8" `Quick test_array_mult8_random;
        Alcotest.test_case "wallace random w8" `Quick test_wallace8_random;
        Alcotest.test_case "square exhaustive w6" `Quick test_square;
      ] );
    ( "divider",
      [
        Alcotest.test_case "exhaustive 8/4" `Slow test_divider;
        Alcotest.test_case "division by zero total" `Quick test_divider_by_zero_total;
      ] );
    ( "unary functions",
      [
        Alcotest.test_case "sqrt random w12" `Quick test_sqrt;
        Alcotest.test_case "sqrt exhaustive w8" `Quick test_sqrt_exhaustive_small;
        Alcotest.test_case "log2 random w16" `Quick test_log2;
        Alcotest.test_case "log2 invalid on zero" `Quick test_log2_zero_invalid;
        Alcotest.test_case "sin parabola exhaustive w8" `Quick test_sin_parabola;
      ] );
    ( "alu",
      [
        Alcotest.test_case "alu8 ops random" `Quick test_alu8_ops;
        Alcotest.test_case "zero flag" `Quick test_alu_zero_flag;
        Alcotest.test_case "alu4 exhaustive" `Slow test_alu4_ops;
      ] );
    ( "ecc",
      [
        Alcotest.test_case "clean word passes" `Quick test_ecc_no_error;
        Alcotest.test_case "single error corrected" `Quick test_ecc_single_error_corrected;
      ] );
    ( "random logic",
      [
        Alcotest.test_case "deterministic" `Quick test_random_logic_deterministic;
        Alcotest.test_case "valid" `Quick test_random_logic_valid;
        Alcotest.test_case "pla valid" `Quick test_pla_valid;
      ] );
    ( "bench suite",
      [
        Alcotest.test_case "all circuits load" `Quick test_bench_suite_all_load;
        Alcotest.test_case "load is deterministic" `Quick
          test_bench_suite_load_deterministic;
        Alcotest.test_case "load preserves function" `Quick test_bench_suite_load_preserves_rca;
        Alcotest.test_case "unknown name" `Quick test_bench_suite_unknown;
        Alcotest.test_case "categories" `Quick test_bench_categories;
      ] );
  ]
