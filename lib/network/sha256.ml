(* FIPS 180-4 SHA-256, dependency-free.

   The result cache behind [Network.digest] is shared across tenants and
   survives restarts, so the digest must be collision-resistant against
   an adversary, not just against chance: a 64-bit non-cryptographic hash
   (FNV, CRC) admits constructed collisions that would let one tenant
   poison another's cache entry.

   The compression function is a C kernel (sha256_stubs.c), using the
   CPU's SHA instructions where it has them. Input is gathered in a
   4 KiB buffer: [feed_int] stores its 8 bytes with one
   [Bytes.set_int64_be] and [feed_string] blits, and when the buffer is
   full one C call compresses every whole block in it. *)

type t = {
  state : Bytes.t;  (* 8 native-endian 32-bit words of chaining state *)
  buf : Bytes.t;  (* input not yet compressed *)
  mutable fill : int;  (* bytes currently in [buf] *)
  mutable flushed : int;  (* bytes compressed so far *)
}

external compress : Bytes.t -> Bytes.t -> int -> unit = "accals_sha256_compress"
[@@noalloc]

(* A multiple of the 64-byte block, with room for the final padding. *)
let capacity = 4096

let create () =
  let state = Bytes.create 32 in
  Array.iteri
    (fun i h -> Bytes.set_int32_ne state (4 * i) (Int32.of_int h))
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |];
  { state; buf = Bytes.create capacity; fill = 0; flushed = 0 }

(* Compress every whole block in the buffer and move the tail, fewer than
   64 bytes, to its front. *)
let flush t =
  let whole = t.fill land lnot 63 in
  compress t.state t.buf (whole lsr 6);
  Bytes.blit t.buf whole t.buf 0 (t.fill - whole);
  t.fill <- t.fill - whole;
  t.flushed <- t.flushed + whole

let feed_byte t c =
  if t.fill = capacity then flush t;
  Bytes.unsafe_set t.buf t.fill (Char.unsafe_chr (c land 0xff));
  t.fill <- t.fill + 1

let feed_string t s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    if t.fill = capacity then flush t;
    let run = min (capacity - t.fill) (n - !pos) in
    Bytes.blit_string s !pos t.buf t.fill run;
    t.fill <- t.fill + run;
    pos := !pos + run
  done

(* 8-byte big-endian two's-complement, so any OCaml int feeds losslessly
   and unambiguously (fixed width: no length-extension-style framing
   ambiguity between adjacent values). *)
let feed_int t x =
  if t.fill > capacity - 8 then flush t;
  Bytes.set_int64_be t.buf t.fill (Int64.of_int x);
  t.fill <- t.fill + 8

let hex t =
  flush t;
  (* The 0x80 byte, zeros up to 56 mod 64, then the length in bits: after
     the flush this is at most 128 bytes. *)
  let bits = (t.flushed + t.fill) * 8 in
  let len = t.fill + 1 + ((55 - t.fill) land 63) in
  Bytes.set t.buf t.fill '\x80';
  Bytes.fill t.buf (t.fill + 1) (len - t.fill - 1) '\x00';
  Bytes.set_int64_be t.buf len (Int64.of_int bits);
  t.fill <- len + 8;
  flush t;
  let digits = "0123456789abcdef" in
  String.init 64 (fun i ->
      let w = Int32.to_int (Bytes.get_int32_ne t.state (4 * (i lsr 3))) in
      digits.[(w lsr (28 - (4 * (i land 7)))) land 15])

let hex_of_string s =
  let t = create () in
  feed_string t s;
  hex t
