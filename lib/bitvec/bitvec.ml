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

let is_zero t = Array.for_all (fun w -> w = 0) t.words

(* 16-bit table popcount: four lookups per word. *)
let pop_table =
  let tbl = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec count v acc = if v = 0 then acc else count (v lsr 1) (acc + (v land 1)) in
    Bytes.unsafe_set tbl i (Char.chr (count i 0))
  done;
  tbl

let popcount_word w =
  Char.code (Bytes.unsafe_get pop_table (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop_table (w lsr 16 land 0xffff))
  + Char.code (Bytes.unsafe_get pop_table (w lsr 32 land 0xffff))
  + Char.code (Bytes.unsafe_get pop_table (w lsr 48 land 0xffff))

let popcount t =
  let acc = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    acc := !acc + popcount_word t.words.(i)
  done;
  !acc

let hamming a b =
  assert (a.len = b.len);
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) lxor b.words.(i))
  done;
  !acc

let check2 a b = assert (a.len = b.len)

let map2 f a b =
  check2 a b;
  let r = create a.len in
  for i = 0 to Array.length a.words - 1 do
    r.words.(i) <- f a.words.(i) b.words.(i)
  done;
  r

let logand = map2 ( land )
let logor = map2 ( lor )
let logxor = map2 ( lxor )

let lognot t =
  let r = create t.len in
  for i = 0 to Array.length t.words - 1 do
    r.words.(i) <- lnot t.words.(i) land word_mask
  done;
  if t.len > 0 then begin
    let last = Array.length r.words - 1 in
    r.words.(last) <- r.words.(last) land tail_mask t.len
  end else r.words.(0) <- 0;
  r

let map2_into f a b ~dst =
  check2 a b;
  check2 a dst;
  for i = 0 to Array.length a.words - 1 do
    dst.words.(i) <- f a.words.(i) b.words.(i)
  done

let logand_into a b ~dst = map2_into ( land ) a b ~dst
let logor_into a b ~dst = map2_into ( lor ) a b ~dst
let logxor_into a b ~dst = map2_into ( lxor ) a b ~dst

let lognot_into a ~dst =
  check2 a dst;
  for i = 0 to Array.length a.words - 1 do
    dst.words.(i) <- lnot a.words.(i) land word_mask
  done;
  if a.len > 0 then begin
    let last = Array.length dst.words - 1 in
    dst.words.(last) <- dst.words.(last) land tail_mask a.len
  end else dst.words.(0) <- 0

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
      (* index of lowest set bit *)
      let rec bit_index v acc = if v = 1 then acc else bit_index (v lsr 1) (acc + 1) in
      f (base + bit_index low 0);
      w := !w land lnot low
    done
  done

let prefix_word t = t.words.(0)

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
