(** Minimal JSON tree, printer and parser.

    The telemetry subsystem emits several JSON artifacts (Chrome trace
    files, JSONL event streams, [--json] reports, bench summaries) and the
    test suite parses them back for schema validation — all through this
    one module, so the repo needs no external JSON dependency.

    Printing is deterministic: object fields keep their construction
    order, floats print via [%.17g] (round-trippable), and non-finite
    floats print as [null] (JSON has no NaN/infinity). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact one-line encoding by default; [~pretty:true] indents with two
    spaces per level (stable, diff-friendly). *)

val to_buffer : Buffer.t -> t -> unit

val add_members : Buffer.t -> (string * t) list -> unit
(** The members of [Obj fields] as the compact {!to_string} prints them
    between the braces: ["key":value] pairs joined by commas, so a
    caller can encode some members once and splice them into objects. *)

val write_file : string -> t -> unit
(** Write [to_string ~pretty:true] plus a trailing newline. *)

(** {1 Parsing}

    The parser is strict enough for untrusted input (the [accals serve]
    daemon parses request bodies with it): no trailing garbage, no
    comments, no trailing commas, exactly four hex digits per [\u]
    escape, and raw control characters inside strings are rejected
    (RFC 8259 requires them escaped; the printer always escapes them). *)

val default_max_depth : int
(** Nesting limit applied when [max_depth] is not given (512). *)

val parse : ?max_depth:int -> ?max_bytes:int -> string -> (t, string) result
(** Strict JSON parser. Numbers without [.], [e] or [E] that fit in an
    OCaml [int] parse as [Int], everything else as [Float].

    [max_depth] (default {!default_max_depth}) bounds array/object
    nesting — it protects the parser's own recursion and every
    downstream consumer from adversarially deep documents. [max_bytes]
    (default: unlimited) rejects oversized payloads before any parsing
    work is done; servers should set it from their request-size
    policy. *)

val parse_exn : ?max_depth:int -> ?max_bytes:int -> string -> t
(** Raises [Failure] with the parse error. *)

(** {1 Accessors (for tests and validators)} *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_list_opt : t -> t list option
val string_opt : t -> string option
val int_opt : t -> int option

val number_opt : t -> float option
(** [Int] or [Float] as a float. *)
