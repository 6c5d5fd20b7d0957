(* The SHA-256 compression kernels against the OCaml rounds they replaced
   (sha256_ref.ml). The library calls whichever kernel was chosen at load
   time; the portable C path is reached here through its own external, so
   it is checked on CPUs where the SHA-instruction path is the one the
   library runs. CI reruns the properties 100 times longer. *)

module Sha256 = Accals_network.Sha256

external compress : Bytes.t -> Bytes.t -> int -> unit = "accals_sha256_compress"
[@@noalloc]

external compress_portable : Bytes.t -> Bytes.t -> int -> unit
  = "accals_sha256_compress_portable"
[@@noalloc]

let kernels = [ ("dispatched", compress); ("portable", compress_portable) ]
let check_string = Alcotest.(check string)

let state_of_words h =
  let s = Bytes.create 32 in
  Array.iteri (fun i w -> Bytes.set_int32_ne s (4 * i) (Int32.of_int w)) h;
  s

let words_of_state s =
  Array.init 8 (fun i -> Int32.to_int (Bytes.get_int32_ne s (4 * i)) land 0xffffffff)

(* A whole message hashed with one kernel: FIPS 180-4 padding, then every
   block in one call. *)
let digest_with kernel msg =
  let n = String.length msg in
  let len = (n + 9 + 63) land lnot 63 in
  let data = Bytes.make len '\x00' in
  Bytes.blit_string msg 0 data 0 n;
  Bytes.set data n '\x80';
  Bytes.set_int64_be data (len - 8) (Int64.of_int (8 * n));
  let state =
    state_of_words
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |]
  in
  kernel state data (len / 64);
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") (words_of_state state)))

let fips_vectors =
  [
    ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "448 bits",
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "896 bits",
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "one million 'a'",
      String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let test_fips_vectors () =
  List.iter
    (fun (name, msg, expected) ->
      check_string ("library: " ^ name) expected (Sha256.hex_of_string msg);
      check_string ("reference: " ^ name) expected (Sha256_ref.hex_of_string msg);
      List.iter
        (fun (kname, kernel) -> check_string (kname ^ ": " ^ name) expected (digest_with kernel msg))
        kernels)
    fips_vectors

(* Any chaining state and 1..8 blocks: both kernels against the OCaml
   rounds, block by block. *)
let prop_compress =
  Test_util.qcheck_case ~count:200 ~long_factor:100
    "kernels equal the OCaml rounds on any state"
    QCheck2.Gen.(
      pair (array_size (return 8) (int_bound 0xffff_ffff))
        (int_range 1 8 >>= fun n -> string_size (return (64 * n))))
    (fun (h, data) ->
      let data = Bytes.of_string data and n = String.length data / 64 in
      let expected = Array.copy h in
      Sha256_ref.compress_blocks expected data n;
      List.for_all
        (fun (_, kernel) ->
          let s = state_of_words h in
          kernel s data n;
          words_of_state s = expected)
        kernels)

type feed = Byte of int | Int of int | Str of string

(* Cut a message of 0..2,000 bytes into a random mix of byte, word and
   string feeds. A word feed takes the next 8 bytes as an int, which may
   change their top bit; [stream] gives the bytes actually fed. Half the
   messages come after a run of 2,096..4,095 bytes, so that the feeds also
   cross the end of the library's 4 KiB input buffer at any offset. *)
let gen_feeds =
  QCheck2.Gen.(
    map
      (fun (skip, (msg, cuts)) ->
        let n = String.length msg in
        let pos = ref 0 in
        let feeds =
          List.filter_map
            (fun (kind, len) ->
              let rest = n - !pos in
              if kind = 0 && rest >= 1 then begin
                incr pos;
                Some (Byte (Char.code msg.[!pos - 1]))
              end
              else if kind = 1 && rest >= 8 then begin
                pos := !pos + 8;
                Some (Int (Int64.to_int (String.get_int64_be msg (!pos - 8))))
              end
              else if kind = 2 then begin
                let len = min len rest in
                pos := !pos + len;
                Some (Str (String.sub msg (!pos - len) len))
              end
              else None)
            cuts
        in
        (Str (String.make skip 's') :: feeds) @ [ Str (String.sub msg !pos (n - !pos)) ])
      (pair
         (oneof [ return 0; int_range 2096 4095 ])
         (pair (string_size (int_range 0 2000))
            (list_size (int_range 0 200) (pair (int_bound 2) (int_bound 130))))))

let stream feeds =
  let b = Buffer.create 256 in
  List.iter
    (function
      | Byte c -> Buffer.add_char b (Char.chr c)
      | Int x -> Buffer.add_int64_be b (Int64.of_int x)
      | Str s -> Buffer.add_string b s)
    feeds;
  Buffer.contents b

let prop_feeds =
  Test_util.qcheck_case ~count:200 ~long_factor:100
    "feed_byte/feed_int/feed_string mixes equal the OCaml hash" gen_feeds (fun feeds ->
      let t = Sha256.create () and r = Sha256_ref.create () in
      List.iter
        (function
          | Byte c ->
            Sha256.feed_byte t c;
            Sha256_ref.feed_byte r c
          | Int x ->
            Sha256.feed_int t x;
            Sha256_ref.feed_int r x
          | Str s ->
            Sha256.feed_string t s;
            Sha256_ref.feed_string r s)
        feeds;
      let expected = Sha256_ref.hex r and msg = stream feeds in
      Sha256.hex t = expected
      && Sha256.hex_of_string msg = expected
      && List.for_all (fun (_, kernel) -> digest_with kernel msg = expected) kernels)

(* Every offset around the end of the library's 4 KiB input buffer, met
   by a word feed and then a byte feed. *)
let test_buffer_end () =
  for skip = 4096 - 80 to 4096 + 8 do
    let feeds = [ Str (String.make skip 'e'); Int (-2); Byte 0xab; Int max_int; Str "end" ] in
    let t = Sha256.create () in
    List.iter
      (function
        | Byte c -> Sha256.feed_byte t c
        | Int x -> Sha256.feed_int t x
        | Str s -> Sha256.feed_string t s)
      feeds;
    check_string
      (Printf.sprintf "after %d bytes" skip)
      (Sha256_ref.hex_of_string (stream feeds))
      (Sha256.hex t)
  done

let suite =
  [
    ( "sha256",
      [
        Alcotest.test_case "FIPS 180-4 vectors on every path" `Quick test_fips_vectors;
        Alcotest.test_case "feeds at every offset of the buffer end" `Quick test_buffer_end;
        prop_compress;
        prop_feeds;
      ] );
  ]
