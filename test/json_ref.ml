(* Reference JSON printer and parser: the straightforward per-character
   codec that [Json] replaced with run scanning.  Kept verbatim as the
   oracle for the differential properties in [Test_telemetry]: the
   production codec must print the same bytes and parse to the same tree
   or the same error message. *)

type t = Accals_telemetry.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
  else Printf.sprintf "%.17g" x

let rec to_buffer_at buf indent v =
  let pretty = indent >= 0 in
  let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_str x)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
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
        to_buffer_at buf (if pretty then indent + 1 else indent) item)
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
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf (if pretty then "\": " else "\":");
        to_buffer_at buf (if pretty then indent + 1 else indent) item)
      fields;
    nl ();
    pad indent;
    Buffer.add_char buf '}'

let to_buffer buf v = to_buffer_at buf (-1) v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  to_buffer_at buf (if pretty then 0 else -1) v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: straightforward recursive descent over the string. *)

exception Parse_error of string

let default_max_depth = 512

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
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %c, found %c" c c'
    | None -> fail "expected %c, found end of input" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
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
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (* Exactly four hex digits — [int_of_string "0x..."] is too
              lenient for untrusted input (it accepts underscores and an
              empty digit string would slip through on short tails). *)
           String.iter
             (function
               | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
               | _ -> fail "bad \\u escape %s" hex)
             hex;
           let code = int_of_string ("0x" ^ hex) in
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
         | c -> fail "bad escape \\%c" c);
        go ()
      end
      else if Char.code c < 0x20 then
        (* RFC 8259: control characters must be escaped.  The printer
           always escapes them, so rejecting raw ones loses nothing and
           closes a smuggling channel on untrusted input. *)
        fail "unescaped control character 0x%02x in string" (Char.code c)
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some ('0' .. '9') -> true | _ -> false
    in
    if not (is_digit ()) then fail "malformed number";
    while is_digit () do
      advance ()
    done;
    let fractional = ref false in
    if peek () = Some '.' then begin
      fractional := true;
      advance ();
      if not (is_digit ()) then fail "malformed number";
      while is_digit () do
        advance ()
      done
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       fractional := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       if not (is_digit ()) then fail "malformed exponent";
       while is_digit () do
         advance ()
       done
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !fractional then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      (* The depth limit bounds both this parser's recursion (stack
         safety on adversarial input) and what a hostile client can make
         downstream consumers walk. *)
      if depth >= max_depth then fail "nesting deeper than %d" max_depth;
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          items := parse_value (depth + 1) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '{' ->
      if depth >= max_depth then fail "nesting deeper than %d" max_depth;
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
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
