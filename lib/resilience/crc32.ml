(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Implemented over plain OCaml [int]s masked to 32 bits so it works
   identically on every 64-bit platform without Int32 boxing. *)

let mask = 0xFFFFFFFF

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c land mask))

let init = mask

let add_byte crc b =
  let table = Lazy.force table in
  table.((crc lxor (b land 0xFF)) land 0xFF) lxor (crc lsr 8) land mask

let add_int crc x =
  (* Feed a 63-bit OCaml int as 8 little-endian bytes; the top byte carries
     the sign bit so negative ints hash distinctly too. *)
  let crc = ref crc in
  for shift = 0 to 7 do
    crc := add_byte !crc ((x asr (shift * 8)) land 0xFF)
  done;
  !crc

let add_string crc s =
  let crc = ref crc in
  String.iter (fun c -> crc := add_byte !crc (Char.code c)) s;
  !crc

let finish crc = crc lxor mask land mask
let digest_string s = finish (add_string init s)
let digest_bytes b = digest_string (Bytes.unsafe_to_string b)
let to_hex crc = Printf.sprintf "%08x" (crc land mask)
