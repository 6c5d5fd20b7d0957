(* The OCaml SHA-256 that the C compression kernels of Sha256
   (lib/network/sha256_stubs.c) replaced, kept as their oracle: the same
   incremental interface, hashing a block at a time with the 64 rounds in
   OCaml. The properties in test_sha256 compare the library and both C
   paths with it.

   Words are plain OCaml [int]s. A 32-bit rotation is one shift of the
   word doubled into the 63-bit int, [x lor (x lsl 32)]: bit 31 falls off
   the top, but no rotation by at most 31 reads it from there. Only values
   that are rotated, stored in the schedule or returned are masked to 32
   bits: addition and the bitwise operators never carry high garbage into
   the low 32 bits, so an unmasked intermediate sum is still right modulo
   2^32. *)

type t = {
  h : int array;  (* 8 words of chaining state *)
  block : Bytes.t;  (* 64-byte input block being filled *)
  w : int array;  (* 64-word message schedule, reused per block *)
  mutable fill : int;  (* bytes currently in [block] *)
  mutable total : int;  (* message length so far, in bytes *)
}

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let create () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    w = Array.make 64 0;
    fill = 0;
    total = 0;
  }

let mask = 0xffffffff

(* One round per call; [w] holds the schedule with the round constants
   already added.  The working variables rotate through the arguments. *)
let rec rounds h w i a b c d e f g hh =
  if i = 64 then begin
    h.(0) <- (h.(0) + a) land mask;
    h.(1) <- (h.(1) + b) land mask;
    h.(2) <- (h.(2) + c) land mask;
    h.(3) <- (h.(3) + d) land mask;
    h.(4) <- (h.(4) + e) land mask;
    h.(5) <- (h.(5) + f) land mask;
    h.(6) <- (h.(6) + g) land mask;
    h.(7) <- (h.(7) + hh) land mask
  end
  else begin
    (* Sigma1(e) and Sigma0(a), left unmasked: only sums use them. *)
    let ee = e lor (e lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = e land f lxor (lnot e land g) in
    let t1 = hh + s1 + ch + Array.unsafe_get w i in
    let aa = a lor (a lsl 32) in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = a land b lxor (a land c) lxor (b land c) in
    rounds h w (i + 1)
      ((t1 + s0 + maj) land mask)
      a b c
      ((d + t1) land mask)
      e f g
  end

let compress t =
  let w = t.w in
  let b = t.block in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be b (4 * i)) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  (* The schedule is done with; fold the round constants into it. *)
  for i = 0 to 63 do
    Array.unsafe_set w i (Array.unsafe_get w i + Array.unsafe_get k i)
  done;
  let h = t.h in
  rounds h w 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let feed_byte t c =
  Bytes.unsafe_set t.block t.fill (Char.unsafe_chr (c land 0xff));
  t.fill <- t.fill + 1;
  t.total <- t.total + 1;
  if t.fill = 64 then begin
    compress t;
    t.fill <- 0
  end

let feed_string t s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let run = min (64 - t.fill) (n - !pos) in
    Bytes.blit_string s !pos t.block t.fill run;
    t.fill <- t.fill + run;
    pos := !pos + run;
    if t.fill = 64 then begin
      compress t;
      t.fill <- 0
    end
  done;
  t.total <- t.total + n

(* 8-byte big-endian two's-complement, so any OCaml int feeds losslessly
   and unambiguously (fixed width: no length-extension-style framing
   ambiguity between adjacent values). *)
let feed_int t x =
  if t.fill <= 56 then begin
    Bytes.set_int64_be t.block t.fill (Int64.of_int x);
    t.fill <- t.fill + 8;
    t.total <- t.total + 8;
    if t.fill = 64 then begin
      compress t;
      t.fill <- 0
    end
  end
  else
    (* Straddles a block boundary: [asr] sign-extends like [Int64.of_int]. *)
    for i = 0 to 7 do
      feed_byte t (x asr (56 - (8 * i)))
    done

let hex t =
  let bits = t.total * 8 in
  feed_byte t 0x80;
  while t.fill <> 56 do
    feed_byte t 0
  done;
  feed_int t bits;
  assert (t.fill = 0);
  let buf = Buffer.create 64 in
  Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf "%08x" w)) t.h;
  Buffer.contents buf

let hex_of_string s =
  let t = create () in
  feed_string t s;
  hex t

(* The kernels' contract: compress the first [n] 64-byte blocks of [data],
   in order, into the 8-word chaining state [h]. *)
let compress_blocks h data n =
  let t = { (create ()) with h } in
  for i = 0 to n - 1 do
    Bytes.blit data (64 * i) t.block 0 64;
    compress t
  done
