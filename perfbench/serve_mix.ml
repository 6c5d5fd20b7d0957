(* The serve-mix workload: a closed loop of two client connections from
   this process against an in-process daemon with one job slot. A run is a
   series of identical blocks, each against a freshly booted daemon with
   its own state and cache directory. A block is 32 jobs, 16 per client:
   each client runs a cold job, then three resubmissions of a finished cold
   job, answered from the cache, four times over. The cold jobs run in
   pairs, one per client: the first client's cold job waits until the
   previous pair has finished, and the second client's is submitted once
   the first's has been, so it always queues behind it. That fixes which
   job waits for which, so a cold job's latency is the same work in every
   block. The seed orders the resubmissions. *)

open Accals_network
module Server = Accals_server.Server
module Client = Accals_server.Client
module Protocol = Accals_server.Protocol
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Config = Accals.Config
module Prng = Accals_bitvec.Prng
module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock

(* Small circuits whose inputs exceed the exhaustive limit, so every job
   samples [samples] random patterns; each has its own error bound. *)
let circuits =
  [| ("mtp8", 0.01); ("cla32", 0.02); ("ksa32", 0.03); ("wal8", 0.05);
     ("c880", 0.01); ("csel32", 0.02); ("dadda8", 0.03); ("fadd8", 0.05) |]

let samples = 256
let clients = 2
let block = 32

(* Client [c]'s [j]-th job is slot [2j + c]; its jobs 0, 4, 8 and 12 are
   cold, and cold job [i] is [circuits.(i)]. *)
let is_cold slot = slot / clients mod 4 = 0
let cold_index slot = (slot / (4 * clients) * clients) + (slot mod clients)

(* The select loop runs on a thread of this domain, as [accals serve] runs
   it on its process's main domain; the daemon's job domains are its own. *)
type daemon = { server : Server.t; loop : Thread.t; socket : string }

let boot dir =
  let socket = Filename.concat dir "d.sock" in
  let server =
    Server.create
      {
        Server.default_config with
        Server.socket;
        jobs = 1;
        max_concurrent = 1;
        cache_dir = Some (Filename.concat dir "cache");
        state_dir = Some (Filename.concat dir "state");
        default_samples = samples;
        log = false;
      }
  in
  let loop = Thread.create Server.run server in
  let d = { server; loop; socket } in
  let c = Client.connect_unix_retry socket in
  let up = Client.ping c in
  Client.close c;
  if not up then failwith "daemon did not answer ping";
  d

let shutdown d =
  Server.stop d.server;
  Thread.join d.loop

let spec (circuit, bound) =
  {
    Protocol.source = Protocol.Named circuit;
    metric = Metric.Error_rate;
    bound;
    budget = None;
    deadline = None;
    priority = 0;
    tenant = "bench";
    samples = Some samples;
    seed = Config.default.seed;
    trace_id = None;
    client_ts = None;
  }

let cold_specs = Array.map spec circuits

let circuit_of spec =
  match spec.Protocol.source with Protocol.Named n -> n | Protocol.Blif_text _ -> "inline"

(* One finished job, with the RPC breakdown of its latency. *)
type op = {
  slot : int;  (** position in the block *)
  spec : Protocol.job_spec;
  cold : bool;  (** the submit was not answered from the cache *)
  latency_ms : float;
  submit_ms : float;
  result_ms : float;
  wait_s : float option;  (** queue wait, from the daemon's status reply *)
  run_s : float option;
  blif : string;
  report : Json.t;
}

let member_float k j = Option.bind (Json.member k j) Json.number_opt

let rpc_ms c req =
  let r, w, _ = Sample.timed (fun () -> Client.rpc c req) in
  (r, w *. 1000.0)

(* Submit, poll [status] until terminal, fetch the result. [submitted] is
   called once the submit has been answered. *)
let run_job c ~slot ~submitted spec =
  let t0 = Clock.now () in
  let expect_ok = function
    | Ok resp when Client.ok resp -> resp
    | Ok resp -> failwith (Client.error_message resp)
    | Error msg -> failwith msg
  in
  let sub, submit_ms = rpc_ms c (Protocol.Submit spec) in
  submitted ();
  let sub = expect_ok sub in
  let id =
    match Option.bind (Json.member "job" sub) Json.string_opt with
    | Some id -> id
    | None -> failwith "submit response without job id"
  in
  let cached = Json.member "cached" sub = Some (Json.Bool true) in
  let deadline = t0 +. 60.0 in
  let rec poll () =
    let st = expect_ok (fst (rpc_ms c (Protocol.Status id))) in
    match Option.bind (Json.member "state" st) Json.string_opt with
    | Some "done" -> st
    | Some (("failed" | "cancelled") as s) -> failwith ("job " ^ s)
    | _ when Clock.now () > deadline -> failwith "timed out"
    | _ ->
      Unix.sleepf 0.005;
      poll ()
  in
  let st = poll () in
  let res, result_ms = rpc_ms c (Protocol.Result id) in
  let res = expect_ok res in
  let latency_ms = (Clock.now () -. t0) *. 1000.0 in
  {
    slot;
    spec;
    cold = not cached;
    latency_ms;
    submit_ms;
    result_ms;
    wait_s = member_float "wait_s" st;
    run_s = member_float "run_s" st;
    blif = Option.value (Option.bind (Json.member "blif" res) Json.string_opt) ~default:"";
    report = Option.value (Json.member "report" res) ~default:Json.Null;
  }

(* One block's jobs, with the progress of its cold jobs. *)
type stream = {
  seed : int;
  mutable ops : op list;
  mutable failures : string list;
  mutable heap_mb : float;  (** largest major heap seen after a job *)
  submitted : bool array;  (** per cold job: its submit was answered, or it failed *)
  finished : bool array;  (** per cold job: it finished, or failed *)
  lock : Mutex.t;
  changed : Condition.t;
}

let await s ready =
  Mutex.protect s.lock (fun () -> while not (ready ()) do Condition.wait s.changed s.lock done)

let mark s flags i =
  Mutex.protect s.lock (fun () ->
      flags.(i) <- true;
      Condition.broadcast s.changed)

(* A cold job waits for its turn: the first of a pair until every earlier
   cold job has finished, the second until the first has been submitted. *)
let await_turn s i =
  await s (fun () ->
      if i mod clients = 0 then Array.for_all Fun.id (Array.sub s.finished 0 i)
      else s.submitted.(i - 1))

(* The three resubmissions after a client's cold job [i] repeat, in an
   order the seed picks, [i] and the two cold jobs of the previous pair,
   all surely finished; after the first pair, [i] three times. The seed
   orders the repeats but leaves the jobs repeated alone, because a hit's
   latency depends on its circuit. *)
let repeat_of ~seed slot =
  let step = slot / clients mod 4 in
  let cold_slot = slot - (step * clients) in
  let own = cold_index cold_slot in
  let prev = own - (own mod clients) - clients in
  let targets = if prev < 0 then [| own; own; own |] else [| own; prev; prev + 1 |] in
  Prng.shuffle (Prng.create ((seed * 31) + cold_slot)) targets;
  cold_specs.(targets.(step - 1))

let client_loop s socket c =
  let own = List.init (Array.length circuits / clients) (fun k -> (k * clients) + c) in
  (* However the client ends, its cold jobs count as done, so the other
     client never waits on them. *)
  Fun.protect ~finally:(fun () ->
      List.iter (fun i -> mark s s.submitted i; mark s s.finished i) own)
  @@ fun () ->
  let conn = Client.connect_unix_retry socket in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  for j = 0 to (block / clients) - 1 do
    let slot = (j * clients) + c in
    let spec, submitted, ended =
      if is_cold slot then begin
        let i = cold_index slot in
        await_turn s i;
        (cold_specs.(i), (fun () -> mark s s.submitted i),
         fun () -> mark s s.submitted i; mark s s.finished i)
      end
      else (repeat_of ~seed:s.seed slot, ignore, ignore)
    in
    (match run_job conn ~slot ~submitted spec with
     | op ->
       Mutex.protect s.lock (fun () ->
           s.heap_mb <- Float.max s.heap_mb (Sample.heap_mb ());
           s.ops <- op :: s.ops)
     | exception e ->
       Mutex.protect s.lock (fun () ->
           s.failures <-
             Printf.sprintf "slot %d %s: %s" slot (circuit_of spec) (Printexc.to_string e)
             :: s.failures));
    ended ()
  done

(* Run one block against a daemon, one thread per client. *)
let run_block ~seed d =
  let colds = Array.length circuits in
  let s =
    {
      seed;
      ops = [];
      failures = [];
      heap_mb = 0.0;
      submitted = Array.make colds false;
      finished = Array.make colds false;
      lock = Mutex.create ();
      changed = Condition.create ();
    }
  in
  let threads = List.init clients (fun c -> Thread.create (fun () -> client_loop s d.socket c) ()) in
  List.iter Thread.join threads;
  s

type timed_block = {
  stream : stream;
  problems : string list;  (** one per failed job *)
  setup_s : float;  (** circuit construction and daemon boot *)
  wall_s : float;
  cpu_s : float;
}

let load_originals () =
  let t = Hashtbl.create 16 in
  Array.iter (fun (n, _) -> Hashtbl.replace t n (Bench_suite.load n)) circuits;
  t

(* Output checks. A cold result is re-measured by plain simulation of the
   original and the returned BLIF; a cache hit must return exactly the
   BLIF its cold job returned in the same block. *)
let check originals s =
  let cold_blif = Hashtbl.create 16 in
  List.iter (fun op -> if op.cold then Hashtbl.replace cold_blif op.spec op.blif) s.ops;
  let problems = ref s.failures in
  let note op msg =
    problems := Printf.sprintf "slot %d %s: %s" op.slot (circuit_of op.spec) msg :: !problems
  in
  List.iter
    (fun op ->
      if op.cold <> is_cold op.slot then note op "cache answer does not match the slot";
      if op.cold then begin
        let original = Hashtbl.find originals (circuit_of op.spec) in
        let reported = Option.value (member_float "error" op.report) ~default:nan in
        let degraded = Json.member "degraded" op.report = Some (Json.Bool true) in
        match Blif.parse_string op.blif with
        | exception Blif.Parse_error msg -> note op ("BLIF: " ^ msg)
        | approx ->
          let config = { Config.default with Config.samples } in
          let remeasured = Synth.remeasure config ~metric:op.spec.Protocol.metric ~original ~approx in
          List.iter (note op)
            (Synth.problems ~bound:op.spec.Protocol.bound ~remeasured ~reported ~degraded
               ~digest:"" ~expected_digest:None)
      end
      else
        match Hashtbl.find_opt cold_blif op.spec with
        | Some b when b = op.blif -> ()
        | Some _ -> note op "cache hit returned a different BLIF"
        | None -> note op "hit on a job that never ran cold")
    s.ops;
  !problems

(* Run [blocks] blocks; each builds the circuits the checks need and boots
   a daemon in its own directory under [dir]. *)
let drive ~seed ~blocks dir =
  let rec loop acc =
    let bdir = Filename.concat dir (Printf.sprintf "block-%d" (List.length acc)) in
    Unix.mkdir bdir 0o755;
    Gc.full_major ();
    let (originals, d), setup_s, _ =
      Sample.timed (fun () ->
          let originals = load_originals () in
          (originals, boot bdir))
    in
    let stream, wall_s, cpu_s =
      Fun.protect ~finally:(fun () -> shutdown d) (fun () ->
          Sample.timed (fun () -> run_block ~seed d))
    in
    let problems = check originals stream in
    (* Keep the results only of the first block's cold jobs, so results
       held from earlier blocks do not grow the heap later blocks run on. *)
    if acc <> [] then
      stream.ops <- List.map (fun op -> { op with blif = ""; report = Json.Null }) stream.ops;
    let acc = { stream; problems; setup_s; wall_s; cpu_s } :: acc in
    if List.length acc < blocks then loop acc else List.rev acc
  in
  loop []

let colds s =
  List.filter (fun op -> op.cold) s.ops |> List.sort (fun a b -> compare a.slot b.slot)

(* Quality of a block's cold jobs: the same eight syntheses in every run. *)
let cold_quality s =
  let field k = List.filter_map (fun op -> member_float k op.report) (colds s) in
  (Sample.gmean (field "area_ratio"), Sample.gmean (field "adp_ratio"))

let op_json op =
  Json.Obj
    [
      ("slot", Json.Int op.slot);
      ("circuit", Json.String (circuit_of op.spec));
      ("bound", Json.Float op.spec.Protocol.bound);
      ( "digest",
        match Blif.parse_string op.blif with
        | net -> Json.String (Network.digest net)
        | exception Blif.Parse_error _ -> Json.Null );
      ("area_ratio", Option.value (Json.member "area_ratio" op.report) ~default:Json.Null);
      ("error", Option.value (Json.member "error" op.report) ~default:Json.Null);
    ]
