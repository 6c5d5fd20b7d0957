module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock

type t = { ic : in_channel; oc : out_channel; token : string option }

let of_fd ?token fd =
  (* A daemon that dies mid-response must not take the client down with
     a SIGPIPE on the next flush; EPIPE surfaces as an error instead. *)
  Graceful.ignore_sigpipe ();
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; token }

let connect_unix ?token path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  of_fd ?token fd

let connect_unix_retry ?(policy = Backoff.default) ?token path =
  let schedule = Backoff.start policy in
  let rec go () =
    match connect_unix ?token path with
    | t -> t
    | exception e -> (
      match Backoff.next schedule with
      | None -> raise e
      | Some d ->
        Unix.sleepf d;
        go ())
  in
  go ()

let connect_tcp ?token host port =
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "cannot resolve %S" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close fd;
     raise e);
  of_fd ?token fd

let close t =
  (* The channels share one fd; close the output side (flushes and closes
     the fd), then only discard the input buffer. *)
  close_out_noerr t.oc;
  close_in_noerr t.ic

let rpc t req =
  (* Write and read are handled separately: a daemon shedding under fd
     pressure writes one structured error line and closes without ever
     reading the request, so this write can fail (EPIPE) with the
     verdict the caller needs already sitting in the socket buffer.
     Always attempt the read; fall back to the write's error only when
     nothing could be drained. *)
  let write_err =
    match
      output_string t.oc
        (Json.to_string
           (Protocol.with_token t.token (Protocol.request_to_json req)));
      output_char t.oc '\n';
      flush t.oc
    with
    | () -> None
    | exception Sys_error msg -> Some msg
    | exception Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  in
  match input_line t.ic with
  | exception End_of_file ->
    Error (Option.value write_err ~default:"connection closed by server")
  | exception Sys_error msg -> Error (Option.value write_err ~default:msg)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Option.value write_err ~default:(Unix.error_message e))
  | line -> (
    match Json.parse line with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "malformed response: %s" msg))

let ok resp =
  match Json.member "ok" resp with Some (Json.Bool b) -> b | _ -> false

let error_message resp =
  match Option.bind (Json.member "error" resp) Json.string_opt with
  | Some msg -> msg
  | None -> "server error"

let error_code resp = Option.bind (Json.member "code" resp) Json.string_opt

let retry_after resp =
  Option.map
    (fun ms -> float_of_int ms /. 1000.0)
    (Option.bind (Json.member "retry_after_ms" resp) Json.int_opt)

(* The one retry loop.  A rejection with a shed code is re-sent under a
   {!Backoff} schedule that honors the daemon's [retry_after_ms] hint as
   a floor on each delay and is hard-bounded by the policy's
   [max_total]; anything else is the answer.  [`Gave_up] carries the
   last rejection and the exhausted schedule. *)
let retrying ?(policy = Backoff.default) t req =
  let schedule = Backoff.start policy in
  let rec go () =
    match rpc t req with
    | Ok resp
      when (not (ok resp))
           && List.mem (error_code resp)
                [
                  Some "overloaded"; Some "quarantined"; Some "resource_exhausted";
                ] -> (
      let floor = Option.value (retry_after resp) ~default:0.0 in
      match Backoff.next_with_floor schedule ~floor with
      | None -> `Gave_up (resp, schedule)
      | Some d ->
        Unix.sleepf d;
        go ())
    | answer -> `Answer answer
  in
  go ()

let rpc_retry ?policy t req =
  match retrying ?policy t req with
  | `Answer answer -> answer
  | `Gave_up (resp, _) -> Ok resp

let submitted = function
  | Error _ as e -> e
  | Ok resp when not (ok resp) -> Error (error_message resp)
  | Ok resp -> (
    match Option.bind (Json.member "job" resp) Json.string_opt with
    | None -> Error "submit response missing job id"
    | Some id -> Ok (id, Json.member "cached" resp = Some (Json.Bool true)))

let submit t spec = submitted (rpc t (Protocol.Submit spec))

(* Retrying a submit is safe by construction: submissions are
   content-addressed (digest + parameters), so a retry either coalesces
   onto the first attempt's job or hits its cached result — it can never
   run the work twice. *)
let submit_retry ?policy t spec =
  match retrying ?policy t (Protocol.Submit spec) with
  | `Answer answer -> submitted answer
  | `Gave_up (resp, schedule) ->
    Error
      (Printf.sprintf "%s (gave up after %d attempt(s), %.1fs)"
         (error_message resp) (Backoff.attempts schedule)
         (Backoff.total_slept schedule))

let wait ?(poll_interval = 0.05) ?timeout t job =
  let deadline = Option.map (fun s -> Clock.now () +. s) timeout in
  let rec go () =
    match rpc t (Protocol.Status job) with
    | Error _ as e -> e
    | Ok resp when not (ok resp) -> Error (error_message resp)
    | Ok resp -> (
      match Option.bind (Json.member "state" resp) Json.string_opt with
      | Some ("done" | "failed" | "cancelled") -> rpc t (Protocol.Result job)
      | _ -> (
        match deadline with
        | Some d when Clock.now () > d ->
          Error (Printf.sprintf "timed out waiting for %s" job)
        | _ ->
          Unix.sleepf poll_interval;
          go ()))
  in
  go ()

let ping t =
  match rpc t Protocol.Ping with Ok resp -> ok resp | Error _ -> false

let health t =
  match rpc t Protocol.Health with
  | Error _ as e -> e
  | Ok resp when not (ok resp) -> Error (error_message resp)
  | Ok resp -> Ok resp
