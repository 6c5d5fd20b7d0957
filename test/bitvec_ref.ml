(* The OCaml counting loops that the C kernels of Bitvec replaced, kept as
   their oracle: each sums the SWAR popcount of one 63-bit int over the
   payload words, as the library did before the kernels moved to C. The
   kernel properties in test_bitvec compare the two. *)

module Bitvec = Accals_bitvec.Bitvec

let words v =
  Array.of_list (List.rev (Bitvec.fold_words v ~init:[] ~f:(fun acc w -> w :: acc)))

(* 2-, 4- and 8-bit field sums, then one multiply gathers the byte sums
   into the top byte. The masks stop at bit 62, the int's top bit, whose
   pair and nibble fields are still summed. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

(* The sum of [popcount_word (word i)] over the word positions of the
   vectors [vs] (equal lengths), [word] reading their words [ws]. *)
let count vs word =
  let ws = Array.map words vs in
  let acc = ref 0 in
  for i = 0 to Array.length ws.(0) - 1 do
    acc := !acc + popcount_word (word (fun j -> ws.(j).(i)))
  done;
  !acc

let popcount a = count [| a |] (fun w -> w 0)
let hamming a b = count [| a; b |] (fun w -> w 0 lxor w 1)
let and_popcount a b = count [| a; b |] (fun w -> w 0 land w 1)
let mux s a b = (s land a) lor (lnot s land b)
let hamming_and t a b = count [| t; a; b |] (fun w -> w 0 lxor (w 1 land w 2))
let hamming_or t a b = count [| t; a; b |] (fun w -> w 0 lxor (w 1 lor w 2))
let hamming_xor t a b = count [| t; a; b |] (fun w -> w 0 lxor w 1 lxor w 2)

let hamming_and3 t a b c =
  count [| t; a; b; c |] (fun w -> w 0 lxor (w 1 land w 2 land w 3))

let hamming_or3 t a b c =
  count [| t; a; b; c |] (fun w -> w 0 lxor (w 1 lor w 2 lor w 3))

let hamming_xor3 t a b c = count [| t; a; b; c |] (fun w -> w 0 lxor w 1 lxor w 2 lxor w 3)

let hamming_mux t ~sel a b =
  count [| t; sel; a; b |] (fun w -> w 0 lxor mux (w 1) (w 2) (w 3))

let mux_popcount ~sel a b = count [| sel; a; b |] (fun w -> mux (w 0) (w 1) (w 2))

(* The masked counts: [m AND (t XOR g)] for the gate output [g]. *)
let masked m t g = count (Array.append [| m; t |] g)

let masked_hamming m t a = masked m t [| a |] (fun w -> w 0 land (w 1 lxor w 2))

let masked_hamming_and m t a b =
  masked m t [| a; b |] (fun w -> w 0 land (w 1 lxor (w 2 land w 3)))

let masked_hamming_or m t a b =
  masked m t [| a; b |] (fun w -> w 0 land (w 1 lxor (w 2 lor w 3)))

let masked_hamming_xor m t a b =
  masked m t [| a; b |] (fun w -> w 0 land (w 1 lxor w 2 lxor w 3))

let masked_hamming_and3 m t a b c =
  masked m t [| a; b; c |] (fun w -> w 0 land (w 1 lxor (w 2 land w 3 land w 4)))

let masked_hamming_or3 m t a b c =
  masked m t [| a; b; c |] (fun w -> w 0 land (w 1 lxor (w 2 lor w 3 lor w 4)))

let masked_hamming_xor3 m t a b c =
  masked m t [| a; b; c |] (fun w -> w 0 land (w 1 lxor w 2 lxor w 3 lxor w 4))

let masked_hamming_mux m t ~sel a b =
  masked m t [| sel; a; b |] (fun w -> w 0 land (w 1 lxor mux (w 2) (w 3) (w 4)))
