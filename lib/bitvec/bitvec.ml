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

let popcount t =
  let w = t.words in
  let acc = ref 0 in
  for i = 0 to Array.length w - 1 do
    acc := !acc + popcount_word w.(i)
  done;
  !acc

let check2 a b = assert (a.len = b.len)

let hamming a b =
  check2 a b;
  let aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length aw - 1 do
    acc := !acc + popcount_word (aw.(i) lxor bw.(i))
  done;
  !acc

let and_popcount a b =
  check2 a b;
  let aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length aw - 1 do
    acc := !acc + popcount_word (aw.(i) land bw.(i))
  done;
  !acc

let masked_diff_count a b m1 m2 =
  check2 a b;
  check2 a m1;
  check2 a m2;
  let aw = a.words and bw = b.words and w1 = m1.words and w2 = m2.words in
  let acc = ref 0 in
  for i = 0 to Array.length aw - 1 do
    acc := !acc + popcount_word ((aw.(i) lxor bw.(i)) land w1.(i) land w2.(i))
  done;
  !acc

(* [hamming t (op a b ...)] without building the gate's signature: one
   loop per op, so no per-word closure call. *)

let hamming_and t a b =
  check2 t a;
  check2 t b;
  let tw = t.words and aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor (aw.(i) land bw.(i)))
  done;
  !acc

let hamming_or t a b =
  check2 t a;
  check2 t b;
  let tw = t.words and aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor (aw.(i) lor bw.(i)))
  done;
  !acc

let hamming_xor t a b =
  check2 t a;
  check2 t b;
  let tw = t.words and aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor aw.(i) lxor bw.(i))
  done;
  !acc

let hamming_and3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  let tw = t.words and aw = a.words and bw = b.words and cw = c.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor (aw.(i) land bw.(i) land cw.(i)))
  done;
  !acc

let hamming_or3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  let tw = t.words and aw = a.words and bw = b.words and cw = c.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor (aw.(i) lor bw.(i) lor cw.(i)))
  done;
  !acc

let hamming_xor3 t a b c =
  check2 t a;
  check2 t b;
  check2 t c;
  let tw = t.words and aw = a.words and bw = b.words and cw = c.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    acc := !acc + popcount_word (tw.(i) lxor aw.(i) lxor bw.(i) lxor cw.(i))
  done;
  !acc

let hamming_mux t ~sel a b =
  check2 t sel;
  check2 t a;
  check2 t b;
  let tw = t.words and sw = sel.words and aw = a.words and bw = b.words in
  let acc = ref 0 in
  for i = 0 to Array.length tw - 1 do
    let s = sw.(i) in
    acc := !acc + popcount_word (tw.(i) lxor ((s land aw.(i)) lor (lnot s land bw.(i))))
  done;
  !acc

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
  let acc = ref 0 in
  for i = 0 to Array.length sel.words - 1 do
    let s = sel.words.(i) in
    acc := !acc + popcount_word ((s land a.words.(i)) lor (lnot s land b.words.(i)))
  done;
  !acc

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

let pp fmt t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char fmt (if get t i then '1' else '0')
  done
