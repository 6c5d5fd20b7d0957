type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Append [s] as a JSON string literal: each run of characters that need
   no escape goes in with one [add_substring]. *)
let add_quoted buf s =
  let hex = "0123456789abcdef" in
  Buffer.add_char buf '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
    end
  done;
  if String.length s > !run then
    Buffer.add_substring buf s !run (String.length s - !run);
  Buffer.add_char buf '"'

(* The runtime primitive that [Printf.sprintf "%.17g"] ends in, called
   without the format interpreter: same bytes, about a third of the time. *)
external format_float : string -> float -> string = "caml_format_float"

let float_str x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
  else format_float "%.17g" x

let rec to_buffer_at buf indent v =
  let pretty = indent >= 0 in
  let pad n =
    if pretty then
      for _ = 1 to 2 * n do
        Buffer.add_char buf ' '
      done
  in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let inner = if pretty then indent + 1 else indent in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_str x)
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (indent + 1);
        to_buffer_at buf inner item)
      items;
    nl ();
    pad indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, item) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (indent + 1);
        add_quoted buf k;
        Buffer.add_string buf (if pretty then ": " else ":");
        to_buffer_at buf inner item)
      fields;
    nl ();
    pad indent;
    Buffer.add_char buf '}'

let to_buffer buf v = to_buffer_at buf (-1) v

let add_members buf fields =
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_quoted buf k;
      Buffer.add_char buf ':';
      to_buffer buf v)
    fields

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  to_buffer_at buf (if pretty then 0 else -1) v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  (try
     output_string oc (to_string ~pretty:true v);
     output_char oc '\n'
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent that scans runs in place.  A string body is
   decoded by the C kernel in json_stubs.c: one pass finds the closing
   quote and the decoded length, a second fills one exactly sized string.
   A body the kernel declines ([\u] escapes and every malformed one) goes
   through the run scanner below, one [add_substring] per run between
   escapes.  An integer of up to 18 characters is accumulated without
   copying it, and a peek is a bounds check and a [String.unsafe_get],
   never an [option]. *)

(* The decoded length of the string body at [start], or -1 when the run
   scanner must decode it. *)
external unescaped_length : string -> int -> int
  = "accals_json_unescaped_length"
[@@noalloc]

(* Decode the body at [start] into [dst], exactly [unescaped_length]
   bytes long, and return the index of its closing quote. *)
external unescape : string -> int -> Bytes.t -> int = "accals_json_unescape"
[@@noalloc]

exception Parse_error of string

let default_max_depth = 512

let is_digit c = c >= '0' && c <= '9'

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let parse_exn ?(max_depth = default_max_depth) ?max_bytes s =
  let n = String.length s in
  (match max_bytes with
   | Some limit when n > limit ->
     raise
       (Parse_error
          (Printf.sprintf "payload too large: %d bytes (limit %d)" n limit))
   | _ -> ());
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos msg)))
      fmt
  in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let digit_here () = !pos < n && is_digit (String.unsafe_get s !pos) in
  let skip_ws () =
    while
      !pos < n
      && (match String.unsafe_get s !pos with
          | ' ' | '\t' | '\n' | '\r' -> true
          | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if at c then incr pos
    else if !pos < n then fail "expected %c, found %c" c s.[!pos]
    else fail "expected %c, found end of input" c
  in
  let literal word v =
    let len = String.length word in
    let rec matches i =
      i = len || (String.unsafe_get s (!pos + i) = word.[i] && matches (i + 1))
    in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  (* Decode the escape whose backslash is at [!pos - 1] into [buf]. *)
  let add_escape buf =
    if !pos >= n then fail "unterminated escape";
    let e = String.unsafe_get s !pos in
    incr pos;
    match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 't' -> Buffer.add_char buf '\t'
    | 'r' -> Buffer.add_char buf '\r'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' ->
      if !pos + 4 > n then fail "truncated \\u escape";
      let start = !pos in
      pos := !pos + 4;
      (* Exactly four hex digits: [int_of_string "0x..."] would be too
         lenient for untrusted input (it accepts underscores). *)
      let code = ref 0 in
      for i = start to start + 3 do
        let d = hex_value (String.unsafe_get s i) in
        if d < 0 then fail "bad \\u escape %s" (String.sub s start 4);
        code := (!code lsl 4) lor d
      done;
      let code = !code in
      (* Encode the code point as UTF-8; surrogate pairs are not
         recombined (the validators never feed us any). *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    | c -> fail "bad escape \\%c" c
  in
  (* The run scanner, for a body the kernel declines: it holds a [\u]
     escape or an error.  [scan i] is the index of the first quote,
     backslash or control character at or after [i]; [n] if there is
     none. *)
  let scan_string () =
    let rec scan i =
      if i >= n then n
      else
        let c = String.unsafe_get s i in
        if c = '"' || c = '\\' || Char.code c < 0x20 then i else scan (i + 1)
    in
    (* [stop] ends the run that started at [!pos]; [buf] holds the text
       decoded before it, if there was an escape. *)
    let rec finish buf stop =
      if stop >= n then begin
        pos := n;
        fail "unterminated string"
      end;
      let c = String.unsafe_get s stop in
      if c = '"' then begin
        let start = !pos in
        pos := stop + 1;
        match buf with
        | None -> String.sub s start (stop - start)
        | Some buf ->
          Buffer.add_substring buf s start (stop - start);
          Buffer.contents buf
      end
      else begin
        let buf =
          match buf with Some buf -> buf | None -> Buffer.create 16
        in
        Buffer.add_substring buf s !pos (stop - !pos);
        pos := stop + 1;
        if c = '\\' then begin
          add_escape buf;
          finish (Some buf) (scan !pos)
        end
        else
          (* RFC 8259: control characters must be escaped.  The printer
             always escapes them, so rejecting raw ones loses nothing and
             closes a smuggling channel on untrusted input. *)
          fail "unescaped control character 0x%02x in string" (Char.code c)
      end
    in
    finish None (scan !pos)
  in
  let parse_string () =
    expect '"';
    let len = unescaped_length s !pos in
    if len < 0 then scan_string ()
    else begin
      let dst = Bytes.create len in
      pos := unescape s !pos dst + 1;
      Bytes.unsafe_to_string dst
    end
  in
  let skip_digits () =
    while digit_here () do
      incr pos
    done
  in
  let parse_number () =
    let start = !pos in
    let negative = at '-' in
    if negative then incr pos;
    if not (digit_here ()) then fail "malformed number";
    (* Accumulate the integer part as we go: at most 18 characters can
       never overflow, and a longer one is re-read by [int_of_string]. *)
    let acc = ref 0 in
    while digit_here () do
      acc := (10 * !acc) + (Char.code (String.unsafe_get s !pos) - 48);
      incr pos
    done;
    let fractional = ref false in
    if at '.' then begin
      fractional := true;
      incr pos;
      if not (digit_here ()) then fail "malformed number";
      skip_digits ()
    end;
    if at 'e' || at 'E' then begin
      fractional := true;
      incr pos;
      if at '+' || at '-' then incr pos;
      if not (digit_here ()) then fail "malformed exponent";
      skip_digits ()
    end;
    let len = !pos - start in
    if !fractional then Float (float_of_string (String.sub s start len))
    else if len <= 18 then Int (if negative then - !acc else !acc)
    else
      let text = String.sub s start len in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
      (* The depth limit bounds both this parser's recursion (stack
         safety on adversarial input) and what a hostile client can make
         downstream consumers walk. *)
      if depth >= max_depth then fail "nesting deeper than %d" max_depth;
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec items_loop acc =
          let acc = parse_value (depth + 1) :: acc in
          skip_ws ();
          if at ',' then begin
            incr pos;
            items_loop acc
          end
          else if at ']' then begin
            incr pos;
            List.rev acc
          end
          else fail "expected , or ] in array"
        in
        List (items_loop [])
      end
    | '{' ->
      if depth >= max_depth then fail "nesting deeper than %d" max_depth;
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec fields_loop acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let acc = (k, parse_value (depth + 1)) :: acc in
          skip_ws ();
          if at ',' then begin
            incr pos;
            fields_loop acc
          end
          else if at '}' then begin
            incr pos;
            List.rev acc
          end
          else fail "expected , or } in object"
        in
        Obj (fields_loop [])
      end
    | _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_exn ?max_depth ?max_bytes s =
  try parse_exn ?max_depth ?max_bytes s
  with Parse_error msg -> failwith ("Json.parse: " ^ msg)

let parse ?max_depth ?max_bytes s =
  match parse_exn ?max_depth ?max_bytes s with
  | v -> Ok v
  | exception Failure msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let string_opt = function String s -> Some s | _ -> None
let int_opt = function Int i -> Some i | _ -> None

let number_opt = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None
