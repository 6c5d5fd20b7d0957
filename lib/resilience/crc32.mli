(** CRC-32 (IEEE 802.3), used to seal checkpoint payloads and to
    fingerprint signature sets during shadow audits.

    The streaming interface is [init] → [add_*]* → [finish]; the digest of
    ["123456789"] is [0xCBF43926] (the standard check value). All values are
    plain non-negative [int]s masked to 32 bits. *)

val init : int
(** Initial accumulator state. *)

val add_byte : int -> int -> int
(** [add_byte crc b] folds the low 8 bits of [b] into [crc]. *)

val add_int : int -> int -> int
(** [add_int crc x] folds [x] as 8 little-endian bytes into [crc]. *)

val add_string : int -> string -> int

val finish : int -> int
(** Final xor; the 32-bit digest. *)

val digest_bytes : bytes -> int
val digest_string : string -> int

val to_hex : int -> string
(** Eight lowercase hex digits. *)
