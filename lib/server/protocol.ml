module Json = Accals_telemetry.Json
module Trace_context = Accals_telemetry.Trace_context
module Metric = Accals_metrics.Metric

type source = Blif_text of string | Named of string

type job_spec = {
  source : source;
  metric : Metric.kind;
  bound : float;
  budget : float option;
  deadline : float option;
  priority : int;
  tenant : string;
  samples : int option;
  seed : int;
  trace_id : string option;
      (* 16-hex trace-context id minted by the client (or forced with
         --trace-id); every span the daemon records for this job is
         tagged with it. *)
  client_ts : float option;
      (* The client's monotonic clock (seconds) at submit time. On the
         same machine (Unix socket) this shares an epoch with the
         daemon's clock, so the merged trace can show a client-submit
         span covering the socket + queue admission latency. *)
}

type request =
  | Submit of job_spec
  | Status of string
  | Result of string
  | Cancel of string
  | List
  | Metrics
  | Health
  | Trace of string
  | Events of string
  | Ping
  | Shutdown

let max_request_bytes = 16 * 1024 * 1024

(* Major protocol version. Clients stamp every request with ["v"];
   servers refuse versions they do not speak with a structured error
   carrying their own version, so an incompatible client fails loud at
   the first request instead of tripping over a missing field later.
   A request without ["v"] is treated as version 1 (the field was
   introduced in version 1, so absence can only mean a v1 writer). *)
let version = 1

let request_to_json req =
  let obj fields = Json.Obj (("v", Json.Int version) :: fields) in
  match req with
  | Submit spec ->
    let source_field =
      match spec.source with
      | Blif_text s -> ("circuit", Json.String s)
      | Named n -> ("name", Json.String n)
    in
    obj
      ([
         ("req", Json.String "submit");
         source_field;
         ("metric", Json.String (Metric.kind_to_string spec.metric));
         ("bound", Json.Float spec.bound);
       ]
      @ (match spec.budget with
         | Some b -> [ ("budget", Json.Float b) ]
         | None -> [])
      @ (match spec.deadline with
         | Some d -> [ ("deadline", Json.Float d) ]
         | None -> [])
      @ (if spec.priority <> 0 then [ ("priority", Json.Int spec.priority) ]
         else [])
      @ (if spec.tenant <> "default" then
           [ ("tenant", Json.String spec.tenant) ]
         else [])
      @ (match spec.samples with
         | Some s -> [ ("samples", Json.Int s) ]
         | None -> [])
      @ (if spec.seed <> 1 then [ ("seed", Json.Int spec.seed) ] else [])
      @ (match spec.trace_id with
         | Some id -> [ ("trace_id", Json.String id) ]
         | None -> [])
      @
      match spec.client_ts with
      | Some ts -> [ ("client_ts", Json.Float ts) ]
      | None -> [])
  | Status job -> obj [ ("req", Json.String "status"); ("job", Json.String job) ]
  | Result job -> obj [ ("req", Json.String "result"); ("job", Json.String job) ]
  | Cancel job -> obj [ ("req", Json.String "cancel"); ("job", Json.String job) ]
  | List -> obj [ ("req", Json.String "list") ]
  | Metrics -> obj [ ("req", Json.String "metrics") ]
  | Health -> obj [ ("req", Json.String "health") ]
  | Trace job -> obj [ ("req", Json.String "trace"); ("job", Json.String job) ]
  | Events job -> obj [ ("req", Json.String "events"); ("job", Json.String job) ]
  | Ping -> obj [ ("req", Json.String "ping") ]
  | Shutdown -> obj [ ("req", Json.String "shutdown") ]

let spec_of_json v =
  let str key = Option.bind (Json.member key v) Json.string_opt in
  let num key = Option.bind (Json.member key v) Json.number_opt in
  let int_field key = Option.bind (Json.member key v) Json.int_opt in
  let source =
    match (str "circuit", str "name") with
    | Some blif, None -> Ok (Blif_text blif)
    | None, Some name -> Ok (Named name)
    | Some _, Some _ -> Error "submit: give either \"circuit\" or \"name\", not both"
    | None, None -> Error "submit: missing \"circuit\" (BLIF text) or \"name\""
  in
  match source with
  | Error _ as e -> e
  | Ok source -> (
    match str "metric" with
    | None -> Error "submit: missing \"metric\""
    | Some m -> (
      match Metric.kind_of_string m with
      | None -> Error (Printf.sprintf "submit: unknown metric %S" m)
      | Some metric -> (
        match num "bound" with
        | None -> Error "submit: missing numeric \"bound\""
        | Some bound when bound <= 0.0 -> Error "submit: bound must be positive"
        | Some bound -> (
          let budget = num "budget" in
          match budget with
          | Some b when b <= 0.0 -> Error "submit: budget must be positive"
          | _ -> (
            let deadline = num "deadline" in
            match deadline with
            | Some d when d <= 0.0 -> Error "submit: deadline must be positive"
            | _ -> (
              match int_field "samples" with
              | Some s when s < 1 -> Error "submit: samples must be >= 1"
              | samples -> (
                match str "trace_id" with
                | Some raw when Trace_context.normalize raw = None ->
                  Error
                    (Printf.sprintf
                       "submit: trace_id must be %d hex digits, got %S"
                       Trace_context.length raw)
                | trace_raw ->
                  Ok
                    {
                      source;
                      metric;
                      bound;
                      budget;
                      deadline;
                      priority = Option.value (int_field "priority") ~default:0;
                      tenant = Option.value (str "tenant") ~default:"default";
                      samples;
                      seed = Option.value (int_field "seed") ~default:1;
                      trace_id =
                        Option.bind trace_raw Trace_context.normalize;
                      client_ts = num "client_ts";
                    })))))))

let request_of_json v =
  match Option.bind (Json.member "req" v) Json.string_opt with
  | None -> Error "missing \"req\" field"
  | Some req -> (
    let with_job k =
      match Option.bind (Json.member "job" v) Json.string_opt with
      | Some job -> Ok (k job)
      | None -> Error (Printf.sprintf "%s: missing \"job\" field" req)
    in
    match req with
    | "submit" -> Result.map (fun spec -> Submit spec) (spec_of_json v)
    | "status" -> with_job (fun j -> Status j)
    | "result" -> with_job (fun j -> Result j)
    | "cancel" -> with_job (fun j -> Cancel j)
    | "list" -> Ok List
    | "metrics" -> Ok Metrics
    | "health" -> Ok Health
    | "trace" -> with_job (fun j -> Trace j)
    | "events" -> with_job (fun j -> Events j)
    | "ping" -> Ok Ping
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown request %S" other))

let token_of_json v = Option.bind (Json.member "token" v) Json.string_opt

let with_token token json =
  match (token, json) with
  | Some tk, Json.Obj fields -> Json.Obj (fields @ [ ("token", Json.String tk) ])
  | _ -> json

type reject = Malformed of string | Unsupported_version of int

let parse_request_v line =
  match Json.parse ~max_bytes:max_request_bytes line with
  | Error msg -> Error (Malformed msg)
  | Ok v -> (
    (* Version gate first: an incompatible client gets the structured
       version error even when the rest of its request would not parse. *)
    match Json.member "v" v with
    | Some (Json.Int w) when w <> version -> Error (Unsupported_version w)
    | Some (Json.Int _) | None -> (
      match request_of_json v with
      | Error msg -> Error (Malformed msg)
      | Ok req -> Ok (req, token_of_json v))
    | Some _ -> Error (Malformed "\"v\" must be an integer"))

let reject_message = function
  | Malformed msg -> msg
  | Unsupported_version w ->
    Printf.sprintf "unsupported protocol version %d (server speaks %d)" w
      version

let parse_request line =
  match parse_request_v line with
  | Ok (req, _) -> Ok req
  | Error r -> Error (reject_message r)

(* Requests that control or read other tenants' jobs.  Over TCP these
   require the daemon's shared token; the Unix socket is trusted (access
   to it is filesystem permissions).  Submit/status/list/metrics/ping/
   health stay open — they create or observe, they cannot steal or
   destroy. *)
let privileged = function
  | Result _ | Cancel _ | Trace _ | Events _ | Shutdown -> true
  | Submit _ | Status _ | List | Metrics | Health | Ping -> false

let error_response msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

(* Structured failure: machine-readable ["code"] plus code-specific
   fields (e.g. ["retry_after_ms"] on "overloaded"), so clients can
   react without parsing the human-readable message. *)
let error_response_code ~code ?(extra = []) msg =
  Json.Obj
    (("ok", Json.Bool false)
    :: ("error", Json.String msg)
    :: ("code", Json.String code)
    :: extra)

let ok_response fields = Json.Obj (("ok", Json.Bool true) :: fields)
