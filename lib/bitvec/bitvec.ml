type t = { len : int; words : int array }

let bits_per_word = 62

let word_mask = max_int (* 2^62 - 1 *)

let words_for len = (len + bits_per_word - 1) / bits_per_word

(* Mask selecting the valid bits of the last word. *)
let tail_mask len =
  let r = len mod bits_per_word in
  if r = 0 then word_mask else (1 lsl r) - 1

let create len =
  assert (len >= 0);
  { len; words = Array.make (max 1 (words_for len)) 0 }

let length t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

let get t i =
  assert (i >= 0 && i < t.len);
  t.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set t i b =
  assert (i >= 0 && i < t.len);
  let w = i / bits_per_word and s = i mod bits_per_word in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl s)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl s)

let fill t b =
  if b then begin
    Array.fill t.words 0 (Array.length t.words) word_mask;
    if t.len > 0 then
      t.words.(Array.length t.words - 1) <- tail_mask t.len
    else Array.fill t.words 0 (Array.length t.words) 0
  end
  else Array.fill t.words 0 (Array.length t.words) 0

let blit ~src ~dst =
  assert (src.len = dst.len);
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let equal a b = a.len = b.len && a.words = b.words

let rec words_zero w i = i = Array.length w || (w.(i) = 0 && words_zero w (i + 1))

let is_zero t = words_zero t.words 0

(* SWAR popcount of one 63-bit OCaml int: 2-, 4- and 8-bit field sums, then
   one multiply gathers the byte sums into the top byte. The masks stop at
   bit 62, the int's top bit, whose pair and nibble fields are still
   summed. *)
let[@inline] popcount_word w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

(* The counting kernels are C loops over the word arrays
   (bitvec_stubs.c); each counts [popcount] of a bitwise expression of
   word [i] of its arguments, over the first argument's length. *)
external popcount_w : int array -> int = "accals_bitvec_popcount" [@@noalloc]
external hamming_w : int array -> int array -> int = "accals_bitvec_hamming" [@@noalloc]

external and_popcount_w : int array -> int array -> int
  = "accals_bitvec_and_popcount" [@@noalloc]

external hamming_and_w : int array -> int array -> int array -> int
  = "accals_bitvec_hamming_and" [@@noalloc]

external hamming_or_w : int array -> int array -> int array -> int
  = "accals_bitvec_hamming_or" [@@noalloc]

external hamming_xor_w : int array -> int array -> int array -> int
  = "accals_bitvec_hamming_xor" [@@noalloc]

external hamming_and3_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_hamming_and3" [@@noalloc]

external hamming_or3_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_hamming_or3" [@@noalloc]

external hamming_xor3_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_hamming_xor3" [@@noalloc]

external hamming_mux_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_hamming_mux" [@@noalloc]

external mux_popcount_w : int array -> int array -> int array -> int
  = "accals_bitvec_mux_popcount" [@@noalloc]

external masked_hamming_w : int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming" [@@noalloc]

external masked_hamming_and_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_and" [@@noalloc]

external masked_hamming_or_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_or" [@@noalloc]

external masked_hamming_xor_w : int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_xor" [@@noalloc]

external masked_hamming_and3_w :
  int array -> int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_and3" [@@noalloc]

external masked_hamming_or3_w :
  int array -> int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_or3" [@@noalloc]

external masked_hamming_xor3_w :
  int array -> int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_xor3" [@@noalloc]

external masked_hamming_mux_w :
  int array -> int array -> int array -> int array -> int array -> int
  = "accals_bitvec_masked_hamming_mux" [@@noalloc]

let popcount t = popcount_w t.words

let check2 a b = assert (a.len = b.len)

let hamming a b =
  check2 a b;
  hamming_w a.words b.words

let and_popcount a b =
  check2 a b;
  and_popcount_w a.words b.words

let hamming_and t a b =
  check2 t a;
  check2 t b;
  hamming_and_w t.words a.words b.words

let hamming_or t a b =
  check2 t a;
  check2 t b;
  hamming_or_w t.words a.words b.words

let hamming_xor t a b =
  check2 t a;
  check2 t b;
  hamming_xor_w t.words a.words b.words

let hamming_and3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  hamming_and3_w t.words a.words b.words c.words

let hamming_or3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  hamming_or3_w t.words a.words b.words c.words

let hamming_xor3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  hamming_xor3_w t.words a.words b.words c.words

let hamming_mux t ~sel a b =
  check2 t sel;
  check2 t a;
  check2 t b;
  hamming_mux_w t.words sel.words a.words b.words

let masked_hamming m t a =
  check2 m t;
  check2 m a;
  masked_hamming_w m.words t.words a.words

let masked_hamming_and m t a b =
  check2 m t;
  check2 m a;
  check2 m b;
  masked_hamming_and_w m.words t.words a.words b.words

let masked_hamming_or m t a b =
  check2 m t;
  check2 m a;
  check2 m b;
  masked_hamming_or_w m.words t.words a.words b.words

let masked_hamming_xor m t a b =
  check2 m t;
  check2 m a;
  check2 m b;
  masked_hamming_xor_w m.words t.words a.words b.words

let masked_hamming_and3 m t a b c =
  check2 m t;
  check2 m a;
  check2 m b;
  check2 m c;
  masked_hamming_and3_w m.words t.words a.words b.words c.words

let masked_hamming_or3 m t a b c =
  check2 m t;
  check2 m a;
  check2 m b;
  check2 m c;
  masked_hamming_or3_w m.words t.words a.words b.words c.words

let masked_hamming_xor3 m t a b c =
  check2 m t;
  check2 m a;
  check2 m b;
  check2 m c;
  masked_hamming_xor3_w m.words t.words a.words b.words c.words

let masked_hamming_mux m t ~sel a b =
  check2 m t;
  check2 m sel;
  check2 m a;
  check2 m b;
  masked_hamming_mux_w m.words t.words sel.words a.words b.words

let logand_into a b ~dst =
  check2 a b;
  check2 a dst;
  let aw = a.words and bw = b.words and dw = dst.words in
  for i = 0 to Array.length aw - 1 do
    dw.(i) <- aw.(i) land bw.(i)
  done

let logor_into a b ~dst =
  check2 a b;
  check2 a dst;
  let aw = a.words and bw = b.words and dw = dst.words in
  for i = 0 to Array.length aw - 1 do
    dw.(i) <- aw.(i) lor bw.(i)
  done

let logxor_into a b ~dst =
  check2 a b;
  check2 a dst;
  let aw = a.words and bw = b.words and dw = dst.words in
  for i = 0 to Array.length aw - 1 do
    dw.(i) <- aw.(i) lxor bw.(i)
  done

let xor_or_into a b ~dst =
  check2 a b;
  check2 a dst;
  let aw = a.words and bw = b.words and dw = dst.words in
  for i = 0 to Array.length aw - 1 do
    dw.(i) <- dw.(i) lor (aw.(i) lxor bw.(i))
  done

let logand a b =
  let r = create a.len in
  logand_into a b ~dst:r;
  r

let logor a b =
  let r = create a.len in
  logor_into a b ~dst:r;
  r

let logxor a b =
  let r = create a.len in
  logxor_into a b ~dst:r;
  r

let lognot_into a ~dst =
  check2 a dst;
  for i = 0 to Array.length a.words - 1 do
    dst.words.(i) <- lnot a.words.(i) land word_mask
  done;
  if a.len > 0 then begin
    let last = Array.length dst.words - 1 in
    dst.words.(last) <- dst.words.(last) land tail_mask a.len
  end else dst.words.(0) <- 0

let lognot t =
  let r = create t.len in
  lognot_into t ~dst:r;
  r

let mux_into ~sel a b ~dst =
  check2 sel a;
  check2 sel b;
  check2 sel dst;
  for i = 0 to Array.length sel.words - 1 do
    let s = sel.words.(i) in
    dst.words.(i) <- (s land a.words.(i)) lor (lnot s land b.words.(i) land word_mask)
  done

let mux_popcount ~sel a b =
  check2 sel a;
  check2 sel b;
  mux_popcount_w sel.words a.words b.words

let randomize rng t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Prng.bits62 rng
  done;
  if t.len > 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land tail_mask t.len
  end else t.words.(0) <- 0

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i b -> if b then set t i true) a;
  t

let to_bool_array t = Array.init t.len (get t)

let iter_set t f =
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    let base = i * bits_per_word in
    while !w <> 0 do
      let low = !w land - !w in
      (* The bits below the lowest set one count its index. *)
      f (base + popcount_word (low - 1));
      w := !w lxor low
    done
  done

let prefix_word t = t.words.(0)

let not_prefix_word t =
  if t.len = 0 then 0
  else lnot t.words.(0) land (if t.len < bits_per_word then tail_mask t.len else word_mask)

let fold_words t ~init ~f =
  let acc = ref init in
  for i = 0 to Array.length t.words - 1 do
    acc := f !acc t.words.(i)
  done;
  !acc
