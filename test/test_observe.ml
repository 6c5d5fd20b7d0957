(* Observability: trace-context ids and their end-to-end propagation
   through the daemon, Prometheus exposition hygiene (name validation,
   escaping) and the sampling profiler (including the determinism
   contract). *)

module Engine = Accals.Engine
module Config = Accals.Config
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Json = Accals_telemetry.Json
module Metrics = Accals_telemetry.Metrics
module Trace_context = Accals_telemetry.Trace_context
module Profiler = Accals_telemetry.Profiler
module Protocol = Accals_server.Protocol
module Server = Accals_server.Server
module Client = Accals_server.Client

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* --- Trace_context --- *)

let test_trace_context () =
  let id = Trace_context.mint () in
  check_int "minted id length" Trace_context.length (String.length id);
  check "minted id is valid" true (Trace_context.is_valid id);
  check "minted ids are distinct" false (Trace_context.mint () = id);
  String.iter
    (fun c ->
      check "minted id is lowercase hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    id;
  (* normalize lowercases and validates. *)
  check "normalize lowercases" true
    (Trace_context.normalize "00DEADBEEF001234" = Some "00deadbeef001234");
  check "normalize accepts canonical" true
    (Trace_context.normalize id = Some id);
  List.iter
    (fun bad ->
      check (Printf.sprintf "reject %S" bad) true
        (Trace_context.normalize bad = None))
    [ ""; "abc"; "00deadbeef00123"; "00deadbeef0012345"; "00deadbeef00123g";
      "00deadbeef 01234" ]

(* --- Prometheus hygiene --- *)

let test_metrics_name_validation () =
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let t = Metrics.create () in
  check "bad metric name rejected" true
    (raises (fun () -> Metrics.counter t "1bad"));
  check "metric name with space rejected" true
    (raises (fun () -> Metrics.counter t "a b"));
  check "metric name with dash rejected" true
    (raises (fun () -> Metrics.gauge t "a-b"));
  check "bad label name rejected" true
    (raises (fun () -> Metrics.counter t ~labels:[ ("0k", "v") ] "ok_total"));
  check "reserved __ label rejected" true
    (raises (fun () -> Metrics.counter t ~labels:[ ("__k", "v") ] "ok_total"));
  (* Valid names (including colons, per the exposition grammar) pass. *)
  ignore (Metrics.counter t ~labels:[ ("tenant", "t0") ] "ns:requests_total");
  ignore (Metrics.gauge t "_private_gauge")

(* Prometheus prints one HELP line per family, so the labelled members of
   a family must agree on it: a different text is a registration error,
   and an omitted one fetches the cell without restating it. *)
let test_metrics_help_per_family () =
  let t = Metrics.create () in
  let help = "Hits by source" in
  Metrics.incr (Metrics.counter t ~help ~labels:[ ("source", "memory") ] "hits_total");
  ignore (Metrics.counter t ~help ~labels:[ ("source", "disk") ] "hits_total");
  ignore (Metrics.counter t ~labels:[ ("source", "disk") ] "hits_total");
  check "conflicting help rejected" true
    (match
       Metrics.counter t ~help:"Disk hits" ~labels:[ ("source", "other") ]
         "hits_total"
     with
     | _ -> false
     | exception Invalid_argument _ -> true);
  let text = Metrics.to_prometheus (Metrics.snapshot t) in
  ignore (Test_telemetry.prometheus_lint text);
  check_string "one HELP for the family"
    "# HELP hits_total Hits by source\n\
     # TYPE hits_total counter\n\
     hits_total{source=\"memory\"} 1\n\
     hits_total{source=\"disk\"} 0\n"
    text

let test_prometheus_escaping () =
  let t = Metrics.create () in
  let c =
    Metrics.counter t
      ~help:"line one\nline \\two"
      ~labels:[ ("tenant", "we\"ird\\te\nnant") ]
      "accals_test_escaping_total"
  in
  Metrics.incr c;
  let text = Metrics.to_prometheus (Metrics.snapshot t) in
  (* The linter rejects raw newlines inside HELP or label values. *)
  ignore (Test_telemetry.prometheus_lint text);
  check "label quote escaped" true (contains text {|we\"ird|});
  check "label backslash escaped" true (contains text {|ird\\te|});
  check "label newline escaped" true (contains text {|te\nnant|});
  check "help newline escaped" true (contains text {|line one\nline|})

(* --- Profiler --- *)

(* Memory allocation in a loop keeps domain 0 hitting safepoints so the
   wall-clock timer's pending signals get handled promptly. *)
let burn seconds =
  let stop_at = Unix.gettimeofday () +. seconds in
  let acc = ref [] in
  while Unix.gettimeofday () < stop_at do
    acc := List.init 64 (fun i -> i) :: !acc;
    if List.length !acc > 128 then acc := []
  done

let test_profiler_sampling () =
  let p = Profiler.start ~hz:251 ~mode:Profiler.Wall () in
  check "double start rejected" true
    (match Profiler.start () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Profiler.set_label 1 "phase_alpha";
  burn 0.4;
  Profiler.clear_label 1;
  Profiler.stop p;
  Profiler.stop p (* idempotent *);
  check "ticks observed" true (Profiler.ticks p > 0);
  check "samples captured" true (Profiler.sample_count p > 0);
  let folded = Profiler.folded p in
  check "folded output non-empty" true (String.length folded > 0);
  (* Every folded row is "frame;frame;... count". *)
  List.iter
    (fun row ->
      if row <> "" then
        match String.rindex_opt row ' ' with
        | None -> Alcotest.failf "folded row without count: %S" row
        | Some i -> (
          match int_of_string_opt (String.sub row (i + 1)
                                     (String.length row - i - 1)) with
          | Some n when n > 0 -> ()
          | _ -> Alcotest.failf "folded row with bad count: %S" row))
    (String.split_on_char '\n' folded);
  check "worker label sampled" true (contains folded "phase_alpha");
  (match Profiler.summary p with
   | Json.Obj fields ->
     check "summary has samples" true (List.mem_assoc "samples" fields);
     check "summary has mode" true (List.mem_assoc "mode" fields)
   | _ -> Alcotest.fail "summary is not an object");
  (* The timer is released: a second profiler can start. *)
  let p2 = Profiler.start ~hz:97 ~mode:Profiler.Wall () in
  Profiler.stop p2

let synth_blif () =
  let net = Bench_suite.load "mtp8" in
  let base = { Config.default with Config.samples = 128; seed = 1; jobs = 1 } in
  let report =
    Engine.run
      ~config:(Config.for_network ~base net)
      net ~metric:Metric.Error_rate ~error_bound:0.02
  in
  Blif.to_string report.Engine.approximate

let test_profiler_determinism () =
  let plain = synth_blif () in
  let p = Profiler.start ~hz:499 ~mode:Profiler.Wall () in
  let profiled = synth_blif () in
  Profiler.stop p;
  check_string "profiling does not change synthesis results" plain profiled

(* --- end-to-end trace propagation through the daemon --- *)

let get_string field v =
  match Option.bind (Json.member field v) Json.string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response missing %S" field

let ok_exn what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let observe_spec ?trace_id ?client_ts name bound =
  {
    Protocol.source = Protocol.Named name;
    metric = Metric.Error_rate;
    bound;
    budget = None;
    deadline = None;
    priority = 0;
    tenant = "obs";
    samples = Some 128;
    seed = 1;
    trace_id;
    client_ts;
  }

let test_trace_propagation_e2e () =
  let dir = temp_dir "accals_observe" in
  let state = Filename.concat dir "state" in
  let server =
    Server.create
      {
        Server.default_config with
        Server.socket = Filename.concat dir "t.sock";
        jobs = 2;
        max_concurrent = 2;
        state_dir = Some state;
        default_samples = 128;
        log = false;
      }
  in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_unix_retry (Filename.concat dir "t.sock") in
  (* A malformed trace id is rejected at the protocol layer. *)
  (match
     Client.submit c { (observe_spec "mtp8" 0.02) with
                       Protocol.trace_id = Some "not-hex" }
   with
   | Error msg -> check "malformed trace id names the field" true
                    (contains msg "trace_id")
   | Ok _ -> Alcotest.fail "malformed trace id accepted");
  (* Submit with a client-minted id and a client timestamp. *)
  let tid = "00deadbeef001234" in
  let resp =
    ok_exn "submit"
      (Client.rpc c
         (Protocol.Submit
            (observe_spec ~trace_id:tid
               ~client_ts:(Accals_telemetry.Clock.now ()) "mtp8" 0.02)))
  in
  check "submit ok" true (Client.ok resp);
  check_string "submit echoes the trace id" tid (get_string "trace_id" resp);
  let job = get_string "job" resp in
  let r = ok_exn "wait" (Client.wait ~timeout:300.0 c job) in
  check_string "job done" "done" (get_string "state" r);
  (* The merged per-job trace: valid Chrome JSON, one pid, the lifecycle
     spans present, every event stamped with the submitted trace id. *)
  let tr = ok_exn "trace" (Client.rpc c (Protocol.Trace job)) in
  let events =
    match Json.member "trace" tr with
    | Some (Json.List _ as l) -> Test_telemetry.validate_chrome_trace l
    | _ -> Alcotest.fail "trace endpoint"
  in
  let names =
    List.filter_map
      (fun ev -> Option.bind (Json.member "name" ev) Json.string_opt)
      events
  in
  List.iter
    (fun expected ->
      check (Printf.sprintf "span %s present" expected) true
        (List.mem expected names))
    [ "client.submit"; "queue.wait"; "dispatch"; "run"; "result.delivery" ];
  List.iter
    (fun ev ->
      match Json.member "args" ev with
      | Some args
        when Json.member "cat" ev = Some (Json.String "job") ->
        check "event carries the trace id" true
          (Json.member "trace_id" args = Some (Json.String tid))
      | _ -> ())
    events;
  check "engine spans attached" true
    (List.exists (fun n -> n = "round" || n = "run" || n = "setup") names);
  (* A submit without a trace id gets one minted server-side. *)
  let resp2 =
    ok_exn "submit unmarked"
      (Client.rpc c (Protocol.Submit (observe_spec "rca32" 0.05)))
  in
  check "minted id is valid" true
    (Trace_context.is_valid (get_string "trace_id" resp2));
  ignore
    (ok_exn "wait unmarked"
       (Client.wait ~timeout:300.0 c (get_string "job" resp2)));
  (* Health carries identity fields. *)
  let h = ok_exn "health" (Client.health c) in
  check "uptime exported" true
    (match Option.bind (Json.member "uptime_seconds" h) Json.number_opt with
     | Some s -> s >= 0.0
     | None -> false);
  check "protocol version exported" true
    (Json.member "protocol_version" h = Some (Json.Int Protocol.version));
  (match Json.member "build" h with
   | Some b -> check "build version non-empty" true
                 (String.length (get_string "version" b) > 0)
   | None -> Alcotest.fail "build identity missing from health");
  (* The daemon exposition lints. *)
  let m = ok_exn "metrics" (Client.rpc c Protocol.Metrics) in
  ignore (Test_telemetry.prometheus_lint (get_string "metrics" m));
  Server.stop server;
  Domain.join daemon;
  Client.close c;
  (* Drain wrote the server-wide trace with per-slot lanes. *)
  let server_trace = Filename.concat state "server.trace.json" in
  check "server trace written" true (Sys.file_exists server_trace);
  let doc = Json.parse_exn (In_channel.with_open_text server_trace
                              In_channel.input_all) in
  match Json.member "traceEvents" doc with
  | Some (Json.List _ as l) ->
    let evs = Test_telemetry.validate_chrome_trace l in
    check "server trace has events" true (List.length evs > 0)
  | _ -> Alcotest.fail "server trace without traceEvents"

let suite =
  [
    ( "observe",
      [
        Alcotest.test_case "trace context ids" `Quick test_trace_context;
        Alcotest.test_case "metric help per family" `Quick
          test_metrics_help_per_family;
        Alcotest.test_case "metric name validation" `Quick
          test_metrics_name_validation;
        Alcotest.test_case "prometheus escaping" `Quick
          test_prometheus_escaping;
        Alcotest.test_case "profiler sampling" `Quick test_profiler_sampling;
        Alcotest.test_case "profiler determinism" `Slow
          test_profiler_determinism;
        Alcotest.test_case "trace propagation e2e" `Slow
          test_trace_propagation_e2e;
      ] );
  ]
