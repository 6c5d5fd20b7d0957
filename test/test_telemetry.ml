(* lib/telemetry: clock, JSON printer/parser, metrics registry with
   Prometheus lint, span tracer with a Chrome trace-event schema
   validator, the Stats phase-timing migration, Trace CSV round-trip,
   Report_json, and the end-to-end determinism contract (telemetry on vs
   off produces bit-identical synthesis results). *)

open Accals_telemetry
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Report_json = Accals.Report_json
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Stats = Accals_runtime.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Clock --- *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let mid = Clock.now () in
  let b = Clock.now_ns () in
  check "ns non-decreasing" true (Int64.compare a b <= 0);
  check "seconds between ns readings" true
    (mid >= Int64.to_float a *. 1e-9 && mid <= Int64.to_float b *. 1e-9);
  (* A short busy loop must show as elapsed time, never negative. *)
  let t0 = Clock.now () in
  let acc = ref 0 in
  for i = 0 to 100_000 do
    acc := !acc + i
  done;
  ignore !acc;
  check "elapsed >= 0" true (Clock.now () -. t0 >= 0.0)

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 0.029999999999999999);
        ("string", Json.String "a\"b\\c\nd\te\x01f");
        ("unicode", Json.String "µ-ops … done");
        ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]);
      ]
  in
  List.iter
    (fun pretty ->
      let s = Json.to_string ~pretty doc in
      match Json.parse s with
      | Ok parsed -> check "round-trip" true (parsed = doc)
      | Error e -> Alcotest.failf "parse (%b): %s" pretty e)
    [ false; true ]

let test_json_non_finite () =
  (* JSON has no NaN/inf; the printer must emit null, never an invalid
     token a downstream viewer chokes on. *)
  let s = Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]) in
  check_string "non-finite floats" "[null,null]" s

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "[1] trailing"; "nul"; "\"unterminated" ]

(* Differential oracle: [Json_ref] is the per-character codec that the
   run-scanning one replaced.  Both must print the same bytes for every
   tree and, for every input, parse to the same tree or fail with the
   same message (offset included).  [Protocol] parses untrusted client
   lines with this parser, so CI also runs these with QCHECK_LONG=true. *)

let gen_json_text =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        (4, string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        (1, string_size ~gen:printable (int_range 60 300));
        (2, oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "/" ]);
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (1, oneofl [ "\x7f"; "\xc2\xb5"; "\xe2\x80\xa6"; "\xf0\x9f\x98\x80" ]);
        (1, string_size ~gen:char (int_range 0 6));
      ]
  in
  map (String.concat "") (list_size (int_range 0 6) piece)

let gen_json_tree =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (1, pure Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        ( 3,
          map
            (fun i -> Json.Int i)
            (frequency
               [ (1, oneofl [ min_int; max_int; 0; -1 ]); (2, int);
                 (2, small_signed_int) ]) );
        ( 3,
          map
            (fun x -> Json.Float x)
            (frequency
               [
                 ( 1,
                   oneofl
                     [ nan; infinity; neg_infinity; 0.0; -0.0; 1e300; 5e-324 ] );
                 (2, map float_of_int int);
                 (2, map float_of_int small_signed_int);
                 (2, float);
               ]) );
        (4, map (fun s -> Json.String s) gen_json_text);
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (tree (depth - 1))));
          ( 1,
            map
              (fun f -> Json.Obj f)
              (list_size (int_range 0 4) (pair gen_json_text (tree (depth - 1)))) );
        ]
  in
  int_range 0 4 >>= tree

let test_json_printer_differential =
  Test_util.qcheck_case ~count:500 ~long_factor:100
    ~print:(fun v -> Json_ref.to_string v)
    "json printer matches the reference" gen_json_tree
    (fun v ->
      List.for_all
        (fun pretty -> Json.to_string ~pretty v = Json_ref.to_string ~pretty v)
        [ false; true ]
      &&
      let buf = Buffer.create 16 in
      Json.to_buffer buf v;
      Buffer.contents buf = Json_ref.to_string v)

(* [Json] prints a finite float through the runtime primitive behind
   [Printf.sprintf "%.17g"]: any bit pattern (NaNs, infinities, zeros,
   subnormals and the extremes among them) must print the same bytes. *)
let test_json_float_format =
  Test_util.qcheck_case ~count:2000 ~long_factor:100 ~print:Int64.to_string
    "json floats print as %.17g"
    QCheck2.Gen.(
      frequency
        [
          (8, int64);
          (1, map Int64.of_int (int_range (-4096) 4096));
          ( 1,
            oneofl
              (List.map Int64.bits_of_float
                 [ 0.0; -0.0; max_float; -.max_float; min_float; 5e-324; nan; infinity ]) );
        ])
    (fun bits ->
      let x = Int64.float_of_bits bits in
      Json.to_string (Json.Float x)
      = if Float.is_finite x then Printf.sprintf "%.17g" x else "null")

(* Trees compared with floats by bit pattern, so -0.0 and 0.0 differ. *)
let rec same_tree a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (k', y) -> k = k' && same_tree x y) xs ys
  | _ -> a = b

let gen_json_number =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; " "; "\t"; "\n "; "\r\n" ] in
  let digits lo hi = string_size ~gen:numeral (int_range lo hi) in
  let frac = frequency [ (3, pure ""); (1, map (( ^ ) ".") (digits 0 4)) ] in
  let exp =
    frequency
      [
        (3, pure "");
        ( 1,
          map3
            (fun e sign ds -> e ^ sign ^ ds)
            (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ]) (digits 0 3) );
      ]
  in
  let number =
    map4
      (fun sign int_part frac exp -> sign ^ int_part ^ frac ^ exp)
      (oneofl [ ""; "-"; "--"; "+" ])
      (digits 0 19) frac exp
  in
  frequency
    [
      (4, map3 (fun a n b -> a ^ n ^ b) ws number ws);
      (1, map2 (fun a b -> "[" ^ a ^ "," ^ b ^ "]") number number);
      (1, map (fun n -> "{\"k\":" ^ n ^ "}") number);
    ]

(* String literals for the C decoder and its fallback: bodies dense in
   every two-character escape, with good and bad [\u] escapes, unknown
   escapes, raw control characters and runs past 4 KB, closed, cut off
   anywhere (inside an escape too), or set as an array item or an object
   key. *)
let gen_json_string_literal =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        ( 6,
          oneofl
            [ {|\"|}; {|\\|}; {|\/|}; {|\n|}; {|\t|}; {|\r|}; {|\b|}; {|\f|} ] );
        (4, string_size ~gen:(char_range 'a' 'z') (int_range 0 12));
        ( 1,
          oneofl
            [ {|\u00e9|}; {|\u0041|}; {|\u20AC|}; {|\uD83D|}; {|\u0000|};
              {|\u12G4|}; {|\u12|}; {|\x|}; {|\'|}; {|\|} ] );
        (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (1, oneofl [ "\x7f"; "\xc2\xb5"; "\xff"; " " ]);
      ]
  in
  let pieces = map (String.concat "") (list_size (int_range 0 20) piece) in
  let long_run =
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '~'; '\x80' ])
      (int_range 4097 6000)
  in
  let body =
    map3
      (fun a run b -> a ^ run ^ b)
      pieces (frequency [ (3, pure ""); (1, long_run) ]) pieces
  in
  frequency
    [
      (4, map (fun b -> "\"" ^ b ^ "\"") body);
      (1, map (fun b -> "\"" ^ b) body);
      ( 2,
        map2
          (fun b cut -> "\"" ^ String.sub b 0 (cut mod (String.length b + 1)))
          body nat );
      (1, map (fun b -> "[\"" ^ b ^ "\",1]") body);
      (1, map (fun b -> "{\"" ^ b ^ "\":\"v\"}") body);
    ]

let gen_json_input =
  let open QCheck2.Gen in
  let alphabet =
    oneofl
      [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; 'u'; 'n'; 't'; 'r'; 'e'; 'E';
        'f'; 'a'; 'l'; 's'; '0'; '1'; '9'; '-'; '+'; '.'; ' '; '\n'; '\x01';
        '\x00'; '\xff'; 'A' ]
  in
  let mutate doc ops =
    List.fold_left
      (fun d (kind, at, c) ->
        let n = String.length d in
        let at = if n = 0 then 0 else at mod (n + 1) in
        let c = String.make 1 c in
        match kind with
        | 0 -> String.sub d 0 at
        | 1 when at < n -> String.sub d 0 at ^ String.sub d (at + 1) (n - at - 1)
        | 2 when at < n -> String.sub d 0 at ^ c ^ String.sub d (at + 1) (n - at - 1)
        | _ -> String.sub d 0 at ^ c ^ String.sub d at (n - at))
      doc ops
  in
  let document =
    map2 (fun v pretty -> Json_ref.to_string ~pretty v) gen_json_tree bool
  in
  let input =
    frequency
      [
        (2, string_size ~gen:alphabet (int_range 0 40));
        (1, string_size ~gen:char (int_range 0 30));
        (1, document);
        ( 4,
          map2 mutate document
            (list_size (int_range 1 3)
               (triple (int_range 0 3) (int_range 0 10_000) alphabet)) );
        (4, gen_json_number);
        (4, gen_json_string_literal);
      ]
  in
  (* Mostly the defaults; sometimes a shallow depth or a byte cap. *)
  let limits =
    frequency
      [
        (4, pure (None, None));
        (1, map (fun d -> (Some d, None)) (int_range 0 3));
        (1, map (fun b -> (None, Some b)) (int_range 0 64));
      ]
  in
  pair input limits

let test_json_parser_differential =
  Test_util.qcheck_case ~count:2000 ~long_factor:100
    ~print:(fun (s, (d, b)) ->
      Printf.sprintf "%S depth=%s bytes=%s" s
        (Option.fold ~none:"-" ~some:string_of_int d)
        (Option.fold ~none:"-" ~some:string_of_int b))
    "json parser matches the reference" gen_json_input
    (fun (s, (max_depth, max_bytes)) ->
      match
        ( Json.parse ?max_depth ?max_bytes s,
          Json_ref.parse ?max_depth ?max_bytes s )
      with
      | Ok a, Ok b -> same_tree a b
      | Error a, Error b -> a = b
      | _ -> false)

(* --- Metrics + Prometheus lint --- *)

(* Test-side Prometheus text-format (0.0.4) lint: no external tools. *)
let prometheus_lint text =
  let metric_re = Str.regexp {|^[a-zA-Z_:][a-zA-Z0-9_:]*$|} in
  let fail fmt = Printf.ksprintf failwith fmt in
  let lines = String.split_on_char '\n' text in
  (match List.rev lines with
   | "" :: _ -> ()
   | _ -> fail "exposition must end with a newline");
  let typed = Hashtbl.create 16 in
  let seen_samples = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (Str.string_match metric_re name 0) then
            fail "bad family name %S" name;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail "bad TYPE %S for %s" kind name;
          if Hashtbl.mem typed name then fail "duplicate TYPE for %s" name;
          Hashtbl.add typed name kind
        | _ -> fail "malformed TYPE line %S" line
      end
      else if String.length line >= 1 && line.[0] = '#' then
        fail "unknown comment line %S" line
      else begin
        (* Sample line: name[{labels}] value *)
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp when b < sp -> b
          | _, Some sp -> sp
          | _ -> fail "malformed sample line %S" line
        in
        let name = String.sub line 0 name_end in
        if not (Str.string_match metric_re name 0) then
          fail "bad metric name %S" name;
        (* A histogram family exports name_bucket/_sum/_count samples. *)
        let family =
          let strip suffix n =
            if Filename.check_suffix n suffix then
              Some (String.sub n 0 (String.length n - String.length suffix))
            else None
          in
          let candidates =
            List.filter_map
              (fun s -> strip s name)
              [ "_bucket"; "_sum"; "_count" ]
          in
          match
            List.find_opt
              (fun f -> Hashtbl.mem typed f
                        && Hashtbl.find typed f = "histogram")
              candidates
          with
          | Some f -> f
          | None -> name
        in
        if not (Hashtbl.mem typed family) then
          fail "sample %s has no TYPE line" name;
        let value_str =
          match String.rindex_opt line ' ' with
          | Some sp -> String.sub line (sp + 1) (String.length line - sp - 1)
          | None -> fail "sample line %S has no value" line
        in
        (match float_of_string_opt value_str with
         | Some _ -> ()
         | None ->
           if value_str <> "+Inf" && value_str <> "-Inf" && value_str <> "NaN"
           then fail "unparsable value %S in %S" value_str line);
        if Hashtbl.mem seen_samples line then fail "duplicate sample %S" line;
        Hashtbl.add seen_samples line ()
      end)
    lines;
  Hashtbl.length typed

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"test counter" "accals_test_total" in
  let c' = Metrics.counter m "accals_test_total" in
  Metrics.incr c;
  Metrics.add c' 4;
  Metrics.addf c 0.5;
  check "idempotent registration shares the cell" true
    (Metrics.counter_value c = 5.5);
  (match Metrics.addf c (-1.0) with
   | () -> Alcotest.fail "negative addf accepted"
   | exception Invalid_argument _ -> ());
  (match Metrics.gauge m "accals_test_total" with
   | _ -> Alcotest.fail "kind clash accepted"
   | exception Invalid_argument _ -> ());
  let g = Metrics.gauge m ~help:"a gauge" "accals_test_gauge" in
  Metrics.set g 2.25;
  let lc =
    Metrics.counter m ~labels:[ ("phase", "simulate") ] "accals_test_labeled"
  in
  Metrics.incr lc;
  let snap = Metrics.snapshot m in
  check "find counter" true
    (Metrics.find snap "accals_test_total" = Some (Metrics.Counter 5.5));
  check "find labeled" true
    (Metrics.find snap ~labels:[ ("phase", "simulate") ] "accals_test_labeled"
     = Some (Metrics.Counter 1.0));
  check "find misses" true (Metrics.find snap "accals_nope" = None)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~help:"latencies" ~buckets:[| 0.1; 1.0; 10.0 |]
      "accals_test_seconds"
  in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.5; 5.0; 50.0 ];
  (match Metrics.find (Metrics.snapshot m) "accals_test_seconds" with
   | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
     check "bounds kept" true (bounds = [| 0.1; 1.0; 10.0 |]);
     check "bucketed" true (counts = [| 1; 2; 1; 1 |]);
     check_int "count" 5 count;
     check "sum" true (abs_float (sum -. 56.05) < 1e-9)
   | _ -> Alcotest.fail "histogram sample missing");
  (match Metrics.histogram m ~buckets:[| 2.0; 1.0 |] "accals_bad" with
   | _ -> Alcotest.fail "unsorted bounds accepted"
   | exception Invalid_argument _ -> ());
  (* The exposition expands to cumulative buckets ending at +Inf = count. *)
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  ignore (prometheus_lint text);
  check "cumulative +Inf bucket equals count" true
    (let needle = "accals_test_seconds_bucket{le=\"+Inf\"} 5" in
     let re = Str.regexp_string needle in
     try ignore (Str.search_forward re text 0); true with Not_found -> false)

let test_prometheus_lint_catches () =
  (* The lint itself must reject malformed expositions, otherwise the CI
     check is vacuous. *)
  List.iter
    (fun bad ->
      match prometheus_lint bad with
      | _ -> Alcotest.failf "lint accepted %S" bad
      | exception Failure _ -> ())
    [
      "accals_x 1\n" (* sample without TYPE *);
      "# TYPE accals_x counter\n# TYPE accals_x counter\naccals_x 1\n";
      "# TYPE 9bad counter\n9bad 1\n";
      "# TYPE accals_x widget\naccals_x 1\n";
      "# TYPE accals_x counter\naccals_x one\n";
    ]

let test_metrics_jsonl () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m ~labels:[ ("k", "v") ] "accals_a_total");
  Metrics.set (Metrics.gauge m "accals_b") 3.0;
  let lines =
    String.split_on_char '\n' (Metrics.to_jsonl (Metrics.snapshot m))
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per sample" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.failf "JSONL line not an object: %s" line
      | Error e -> Alcotest.failf "JSONL line unparsable (%s): %s" e line)
    lines

(* --- Tracer + Chrome trace schema validator --- *)

(* Strict test-side validator for the Chrome trace-event array form:
   every event is an object with name/ph/pid/tid; "X" events carry
   ts >= 0 and dur >= 0; "i" events carry ts and scope "t"; "M" events
   are thread_name metadata. Returns the non-metadata events. *)
let validate_chrome_trace json =
  let fail fmt = Printf.ksprintf failwith fmt in
  let events =
    match Json.to_list_opt json with
    | Some l -> l
    | None -> fail "trace is not a JSON array"
  in
  let field ev name =
    match Json.member name ev with
    | Some v -> v
    | None -> fail "event missing %S: %s" name (Json.to_string ev)
  in
  let the_pid = ref None in
  List.filter
    (fun ev ->
      (match ev with Json.Obj _ -> () | _ -> fail "event is not an object");
      let name =
        match Json.string_opt (field ev "name") with
        | Some s when s <> "" -> s
        | _ -> fail "bad name"
      in
      let ph =
        match Json.string_opt (field ev "ph") with
        | Some s -> s
        | None -> fail "bad ph"
      in
      let pid =
        match Json.int_opt (field ev "pid") with
        | Some p -> p
        | None -> fail "bad pid"
      in
      (match !the_pid with
       | None -> the_pid := Some pid
       | Some p when p = pid -> ()
       | Some p -> fail "pid %d <> %d: one process per trace" pid p);
      (match Json.int_opt (field ev "tid") with
       | Some _ -> ()
       | None -> fail "bad tid");
      match ph with
      | "M" ->
        if name <> "thread_name" then fail "unknown metadata event %s" name;
        (match Json.member "name" (field ev "args") with
         | Some (Json.String _) -> ()
         | _ -> fail "thread_name without args.name");
        false
      | "X" ->
        let ts =
          match Json.number_opt (field ev "ts") with
          | Some t -> t
          | None -> fail "X without numeric ts"
        in
        let dur =
          match Json.number_opt (field ev "dur") with
          | Some d -> d
          | None -> fail "X without numeric dur"
        in
        if ts < 0.0 || dur < 0.0 then fail "negative ts/dur";
        true
      | "i" ->
        (match Json.number_opt (field ev "ts") with
         | Some _ -> ()
         | None -> fail "i without ts");
        (match Json.member "s" ev with
         | Some (Json.String ("t" | "p" | "g")) -> ()
         | _ -> fail "i without scope");
        true
      | other -> fail "unexpected ph %S" other)
    events

let test_tracer_events () =
  let t = Tracer.create () in
  Tracer.with_span t ~cat:"test" "outer" (fun () ->
      Tracer.with_span t ~cat:"test"
        ~args:[ ("k", Json.Int 7) ]
        "inner"
        (fun () -> ignore (Sys.opaque_identity (ref 0)));
      Tracer.instant t "mark");
  check_int "three events" 3 (Tracer.event_count t);
  let events = validate_chrome_trace (Tracer.to_json t) in
  check_int "three non-metadata events" 3 (List.length events);
  let span name =
    List.find
      (fun ev -> Json.member "name" ev = Some (Json.String name))
      events
  in
  let ts ev = Option.get (Json.number_opt (Option.get (Json.member "ts" ev))) in
  let dur ev =
    Option.get (Json.number_opt (Option.get (Json.member "dur" ev)))
  in
  let outer = span "outer" and inner = span "inner" in
  check "inner nests inside outer" true
    (ts outer <= ts inner && ts inner +. dur inner <= ts outer +. dur outer);
  check "args survive" true
    (Json.member "args" inner = Some (Json.Obj [ ("k", Json.Int 7) ]))

let test_tracer_write_file () =
  let t = Tracer.create () in
  Tracer.with_span t "solo" (fun () -> ());
  let path = Filename.temp_file "accals_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tracer.write t path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      ignore (validate_chrome_trace (Json.parse_exn text)))

let test_tracer_raising_thunk () =
  let t = Tracer.create () in
  (try Tracer.with_span t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  check_int "span closed on raise" 1 (Tracer.event_count t)

(* --- Telemetry facade --- *)

let test_telemetry_disabled_noop () =
  Telemetry.reset ();
  check "not tracing" false (Telemetry.tracing ());
  (* Every facade call must be callable with nothing installed. *)
  Telemetry.with_span "x" (fun () -> ());
  let s = Telemetry.begin_span "y" in
  Telemetry.end_span s;
  Telemetry.instant "z";
  Telemetry.count "accals_noop_total" 1;
  Telemetry.event (fun () -> Alcotest.fail "event thunk forced while disabled");
  Telemetry.progress_round ~round:1 ~max_rounds:2 ~error:0.0 ~threshold:0.1
    ~area:1.0;
  Telemetry.progress_finish ()

let test_telemetry_install () =
  let tracer = Tracer.create () in
  Telemetry.install (Telemetry.make ~tracer ());
  Fun.protect ~finally:Telemetry.reset (fun () ->
      check "tracing on" true (Telemetry.tracing ());
      Telemetry.with_span "spanned" (fun () -> ());
      Telemetry.count ~help:"h" "accals_inst_total" 3;
      check_int "span recorded" 1 (Tracer.event_count tracer);
      check "ambient counter recorded" true
        (Metrics.find
           (Metrics.snapshot (Telemetry.metrics ()))
           "accals_inst_total"
         = Some (Metrics.Counter 3.0)));
  check "reset restores disabled" false (Telemetry.tracing ())

let test_telemetry_events_stream () =
  let path = Filename.temp_file "accals_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Telemetry.install (Telemetry.make ~events:oc ());
      Telemetry.event (fun () -> Json.Obj [ ("event", Json.String "a") ]);
      Telemetry.event (fun () -> Json.Obj [ ("event", Json.String "b") ]);
      Telemetry.reset ();
      close_out oc;
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      close_in ic;
      check "line 1" true
        (Json.parse_exn l1 = Json.Obj [ ("event", Json.String "a") ]);
      check "line 2" true
        (Json.parse_exn l2 = Json.Obj [ ("event", Json.String "b") ]))

(* --- Progress heartbeat --- *)

let test_progress_stderr_only () =
  let path = Filename.temp_file "accals_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let p = Progress.create ~min_interval:0.0 ~out:oc () in
      Progress.round p ~round:1 ~max_rounds:10 ~error:0.01 ~threshold:0.05
        ~area:123.4;
      Progress.round p ~round:2 ~max_rounds:10 ~error:0.02 ~threshold:0.05
        ~area:120.0;
      Progress.finish p;
      close_out oc;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check "carriage-return repaints" true (String.contains text '\r');
      check "mentions the round" true
        (let re = Str.regexp_string "round 2/10" in
         try ignore (Str.search_forward re text 0); true
         with Not_found -> false);
      check "ends with newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n'))

let test_progress_finish_without_rounds () =
  let oc = open_out Filename.null in
  let p = Progress.create ~out:oc () in
  Progress.finish p;
  close_out oc

(* --- Stats: monotonic phase timing (satellite regression) --- *)

let test_stats_time_phase_monotonic () =
  let s = Stats.create ~jobs:1 in
  let spin () =
    let t0 = Clock.now () in
    while Clock.now () -. t0 < 0.002 do
      ignore (Sys.opaque_identity (ref 0))
    done
  in
  Stats.time_phase s "alpha" spin;
  Stats.time_phase s "beta" (fun () ->
      (* Nested distinct phases: both levels accumulate. *)
      Stats.time_phase s "alpha" spin);
  let snap = Stats.snapshot s in
  let a = Stats.phase_seconds snap "alpha" in
  let b = Stats.phase_seconds snap "beta" in
  check "alpha >= 2 spins" true (a >= 0.004);
  check "beta covers nested alpha" true (b >= 0.002);
  check "phase order is first-recorded" true
    (List.map fst snap.Stats.phases = [ "alpha"; "beta" ]);
  check "never negative" true (a >= 0.0 && b >= 0.0);
  (* Raising thunks still record their time. *)
  (try Stats.time_phase s "gamma" (fun () -> spin (); failwith "boom")
   with Failure _ -> ());
  check "raising phase recorded" true
    (Stats.phase_seconds (Stats.snapshot s) "gamma" >= 0.002)

let test_stats_phase_spans () =
  (* time_phase doubles as the span source for engine phases. *)
  let tracer = Tracer.create () in
  Telemetry.install (Telemetry.make ~tracer ());
  Fun.protect ~finally:Telemetry.reset (fun () ->
      let s = Stats.create ~jobs:1 in
      Stats.time_phase s "simulate" (fun () -> ());
      check_int "phase span emitted" 1 (Tracer.event_count tracer));
  let snap_metrics =
    let s = Stats.create ~jobs:1 in
    Stats.add_phase s "simulate" 1.5;
    Stats.snapshot s
  in
  (* The snapshot's phase list is derived from the metrics registry. *)
  check "phase served by the registry" true
    (Metrics.find snap_metrics.Stats.metrics
       ~labels:[ ("phase", "simulate") ]
       "accals_phase_seconds_total"
     = Some (Metrics.Counter 1.5))

(* --- Trace CSV: arity lock, formatting stability, round-trip --- *)

let sample_rounds =
  [
    {
      Trace.index = 1;
      mode = Trace.Multi;
      candidates = 120;
      top_count = 40;
      sol_count = 12;
      indp_count = 7;
      rand_count = 5;
      chose_indp = Some true;
      applied = 7;
      skipped_cycles = 1;
      error_before = 0.0;
      error_after = 0.012345678901;
      estimated_error = 0.0123;
      reverted = false;
      area = 345.5;
      resim_nodes = 210;
      resim_converged = 34;
      resim_recycled = 180;
    };
    {
      Trace.index = 2;
      mode = Trace.Single;
      candidates = 80;
      top_count = 0;
      sol_count = 0;
      indp_count = 0;
      rand_count = 0;
      chose_indp = None;
      applied = 1;
      skipped_cycles = 0;
      error_before = 0.012345678901;
      error_after = 0.03;
      estimated_error = 0.029;
      reverted = true;
      area = 340.0;
      resim_nodes = 42;
      resim_converged = 0;
      resim_recycled = 0;
    };
  ]

let test_trace_csv_format () =
  let csv = Trace.to_csv sample_rounds in
  let lines = String.split_on_char '\n' csv |> List.filter (( <> ) "") in
  check_int "header + 2 rows" 3 (List.length lines);
  let header = List.hd lines in
  (* Header lock: adding/removing/renaming a column must fail this test
     so downstream notebooks get a heads-up. *)
  check_string "header"
    "round,mode,candidates,top,sol,indp,rand,chose_indp,applied,skipped,\
     error_before,error_after,estimated_error,reverted,area,\
     resim_nodes,resim_converged,resim_recycled"
    header;
  check_int "header arity" 18
    (List.length (String.split_on_char ',' header));
  List.iter
    (fun row ->
      check_int "row arity" 18 (List.length (String.split_on_char ',' row)))
    (List.tl lines);
  (* Float formatting stability: errors at %.9f, area at %.1f. *)
  check_string "row 1"
    "1,multi,120,40,12,7,5,indp,7,1,0.000000000,0.012345679,0.012300000,false,345.5,210,34,180"
    (List.nth lines 1)

let test_trace_csv_roundtrip () =
  let csv = Trace.to_csv sample_rounds in
  let parsed = Trace.of_csv csv in
  (* Floats come back %.9f/%.1f-rounded; compare against re-serialization,
     which is exact. *)
  check_string "re-serialization is a fixpoint" csv (Trace.to_csv parsed);
  check_int "rounds preserved" 2 (List.length parsed);
  let p1 = List.hd parsed and s1 = List.hd sample_rounds in
  check "non-float fields exact" true
    (p1.Trace.index = s1.Trace.index
     && p1.Trace.mode = s1.Trace.mode
     && p1.Trace.chose_indp = s1.Trace.chose_indp
     && p1.Trace.reverted = s1.Trace.reverted
     && p1.Trace.resim_nodes = s1.Trace.resim_nodes)

let test_trace_csv_rejects () =
  List.iter
    (fun bad ->
      match Trace.of_csv bad with
      | _ -> Alcotest.failf "of_csv accepted %S" bad
      | exception Failure _ -> ())
    [
      "";
      "wrong,header\n";
      (* header ok, row with wrong arity *)
      (Trace.to_csv [] ^ "1,multi,3\n");
      (* bad mode *)
      (Trace.to_csv [] ^ "1,both,120,40,12,7,5,indp,7,1,0.0,0.0,0.0,false,1.0,0,0,0\n");
      (* bad bool *)
      (Trace.to_csv [] ^ "1,multi,120,40,12,7,5,indp,7,1,0.0,0.0,0.0,maybe,1.0,0,0,0\n");
    ]

(* --- End-to-end: engine under telemetry, determinism contract --- *)

let run_engine () =
  let net = Bench_suite.load "mtp8" in
  let config =
    Config.for_network
      ~base:{ Config.default with seed = 1; samples = 512; jobs = 1 }
      net
  in
  Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.05

let strip_runtime (r : Engine.report) =
  (* Everything except wall-clock noise and the observational extras. *)
  ( r.Engine.rounds,
    r.Engine.error,
    r.Engine.area_ratio,
    r.Engine.delay_ratio,
    r.Engine.exact_evaluations,
    r.Engine.incidents )

let test_engine_trace_spans () =
  Telemetry.reset ();
  let plain = run_engine () in
  let tracer = Tracer.create () in
  Telemetry.install (Telemetry.make ~tracer ());
  let traced = Fun.protect ~finally:Telemetry.reset run_engine in
  (* Determinism contract: telemetry only observes. *)
  check "report identical with tracing on" true
    (strip_runtime plain = strip_runtime traced);
  let events = validate_chrome_trace (Tracer.to_json tracer) in
  let names =
    List.filter_map (fun ev -> Json.string_opt (Option.get (Json.member "name" ev)))
      events
  in
  let count name = List.length (List.filter (( = ) name) names) in
  check_int "exactly one engine.run span" 1 (count "engine.run");
  check_int "one span per round" (List.length traced.Engine.rounds)
    (count "round");
  (* Every engine phase that ran must appear as a span. *)
  List.iter
    (fun (phase, _) ->
      check (phase ^ " phase span present") true (count phase > 0))
    traced.Engine.stats.Stats.phases;
  (* Spans nest: rounds inside engine.run. *)
  let bounds name =
    List.filter_map
      (fun ev ->
        match Json.string_opt (Option.get (Json.member "name" ev)) with
        | Some n when n = name ->
          let ts =
            Option.get (Json.number_opt (Option.get (Json.member "ts" ev)))
          in
          let dur =
            Option.get (Json.number_opt (Option.get (Json.member "dur" ev)))
          in
          Some (ts, ts +. dur)
        | _ -> None)
      events
  in
  let run_s, run_e = List.hd (bounds "engine.run") in
  List.iter
    (fun (s, e) ->
      check "round span inside engine.run" true (s >= run_s && e <= run_e))
    (bounds "round")

(* Each incident the engine records is one "incident" trace instant and one
   "incident" JSONL event, in the report's order. A zero round deadline
   expires in round 1. *)
let test_engine_incident_events () =
  Telemetry.reset ();
  let net = Bench_suite.load "mtp8" in
  let config =
    Config.for_network
      ~base:
        {
          Config.default with
          seed = 1;
          samples = 512;
          jobs = 1;
          round_deadline = Some 0.0;
        }
      net
  in
  let path = Filename.temp_file "accals_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let tracer = Tracer.create () in
  let oc = open_out path in
  Telemetry.install (Telemetry.make ~tracer ~events:oc ());
  let report =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.reset ();
        close_out oc)
      (fun () ->
        Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.05)
  in
  let kinds = List.map Accals_audit.Incident.kind_name report.Engine.incidents in
  check "the deadline expired" true (kinds = [ "watchdog_expired" ]);
  let kind_of ev =
    Option.bind (Json.member "kind" ev) Json.string_opt |> Option.get
  in
  let instants =
    List.filter
      (fun ev -> Json.member "name" ev = Some (Json.String "incident"))
      (validate_chrome_trace (Tracer.to_json tracer))
  in
  check "one instant per incident" true
    (List.map (fun ev -> kind_of (Option.get (Json.member "args" ev))) instants
    = kinds);
  let events =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map Json.parse_exn
    |> List.filter (fun ev ->
           Json.member "event" ev = Some (Json.String "incident"))
  in
  check "one event per incident" true (List.map kind_of events = kinds)

let test_engine_metrics_registry () =
  Telemetry.reset ();
  let report = run_engine () in
  let snap = report.Engine.metrics in
  let counter name =
    match Metrics.find snap name with
    | Some (Metrics.Counter v) -> v
    | _ -> Alcotest.failf "counter %s missing from report metrics" name
  in
  check "rounds counted" true
    (counter "accals_rounds_total"
     = float_of_int (List.length report.Engine.rounds));
  check "evaluations counted" true
    (counter "accals_estimator_evaluations_total"
     = float_of_int report.Engine.exact_evaluations);
  check "candidates counted" true
    (counter "accals_candidates_total"
     = float_of_int
         (List.fold_left
            (fun acc r -> acc + r.Trace.candidates)
            0 report.Engine.rounds));
  check "resim nodes counted" true
    (counter "accals_resim_nodes_total"
     = float_of_int
         (List.fold_left
            (fun acc r -> acc + r.Trace.resim_nodes)
            0 report.Engine.rounds));
  (* Trace resim counters and the registry must agree: same source. *)
  check "estimator cache counters present" true
    (counter "accals_estimator_cone_cache_hits_total" >= 0.0
     && counter "accals_estimator_cone_cache_misses_total" >= 0.0);
  check "gc gauges sampled" true
    (match Metrics.find snap "accals_gc_heap_words" with
     | Some (Metrics.Gauge w) -> w > 0.0
     | _ -> false);
  (* The whole merged snapshot must export cleanly. *)
  ignore (prometheus_lint (Metrics.to_prometheus snap))

(* --- Report_json --- *)

let test_report_json () =
  Telemetry.reset ();
  let report = run_engine () in
  let doc = Json.parse_exn (Report_json.to_string ~rounds:true report) in
  let str name =
    match Json.member name doc with
    | Some (Json.String s) -> s
    | other -> Alcotest.failf "field %s: %s" name
                 (match other with
                  | Some v -> Json.to_string v
                  | None -> "missing")
  in
  let num name =
    match Option.bind (Json.member name doc) Json.number_opt with
    | Some v -> v
    | None -> Alcotest.failf "numeric field %s missing" name
  in
  check_string "circuit" "mtp8" (str "circuit");
  check_string "metric" "ER" (str "metric");
  check "error matches" true (num "error" = report.Engine.error);
  check "area matches" true (num "area_ratio" = report.Engine.area_ratio);
  check "rounds count" true
    (num "rounds" = float_of_int (List.length report.Engine.rounds));
  (match Json.member "round_trace" doc with
   | Some (Json.List l) ->
     check_int "round_trace arity" (List.length report.Engine.rounds)
       (List.length l)
   | _ -> Alcotest.fail "round_trace missing with ~rounds:true");
  (match Json.member "stats" doc with
   | Some stats ->
     check "stats.jobs" true
       (Option.bind (Json.member "jobs" stats) Json.int_opt = Some 1)
   | None -> Alcotest.fail "stats missing");
  (* Without ~rounds the document stays compact. *)
  let compact = Json.parse_exn (Report_json.to_string report) in
  check "no round_trace by default" true
    (Json.member "round_trace" compact = None)

let suite =
  [
    ( "json differential",
      [
        test_json_printer_differential;
        test_json_parser_differential;
        test_json_float_format;
      ] );
    ( "telemetry",
      [
        Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json non-finite" `Quick test_json_non_finite;
        Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
        Alcotest.test_case "prometheus lint catches" `Quick
          test_prometheus_lint_catches;
        Alcotest.test_case "metrics jsonl" `Quick test_metrics_jsonl;
        Alcotest.test_case "tracer events" `Quick test_tracer_events;
        Alcotest.test_case "tracer write file" `Quick test_tracer_write_file;
        Alcotest.test_case "tracer raising thunk" `Quick
          test_tracer_raising_thunk;
        Alcotest.test_case "telemetry disabled noop" `Quick
          test_telemetry_disabled_noop;
        Alcotest.test_case "telemetry install" `Quick test_telemetry_install;
        Alcotest.test_case "telemetry events stream" `Quick
          test_telemetry_events_stream;
        Alcotest.test_case "progress stderr only" `Quick
          test_progress_stderr_only;
        Alcotest.test_case "progress finish empty" `Quick
          test_progress_finish_without_rounds;
        Alcotest.test_case "stats time_phase monotonic" `Quick
          test_stats_time_phase_monotonic;
        Alcotest.test_case "stats phase spans" `Quick test_stats_phase_spans;
        Alcotest.test_case "trace csv format" `Quick test_trace_csv_format;
        Alcotest.test_case "trace csv roundtrip" `Quick
          test_trace_csv_roundtrip;
        Alcotest.test_case "trace csv rejects" `Quick test_trace_csv_rejects;
        Alcotest.test_case "engine trace spans" `Quick test_engine_trace_spans;
        Alcotest.test_case "engine incident events" `Quick
          test_engine_incident_events;
        Alcotest.test_case "engine metrics registry" `Quick
          test_engine_metrics_registry;
        Alcotest.test_case "report json" `Quick test_report_json;
      ] );
  ]
