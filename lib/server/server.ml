module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Metrics = Accals_telemetry.Metrics
module Telemetry = Accals_telemetry.Telemetry
module Tracer = Accals_telemetry.Tracer
module Profiler = Accals_telemetry.Profiler
module Build_info = Accals_telemetry.Build_info
module Checkpoint = Accals_resilience.Checkpoint
module Network = Accals_network.Network
module Blif = Accals_io.Blif
module Bench_suite = Accals_circuits.Bench_suite
module Domain_hub = Accals_runtime.Domain_hub
module Engine = Accals.Engine
module Config = Accals.Config
module Report_json = Accals.Report_json
module Incident = Accals_audit.Incident
module Budget = Accals_resilience.Budget

type config = {
  socket : string;
  tcp : (string * int) option;
  tcp_token : string option;
  jobs : int;
  max_concurrent : int;
  max_queue : int;
  tenant_max_queued : int;
  tenant_max_running : int;
  deadline_grace : float;
  quarantine_threshold : int;
  quarantine_cooldown : float;
  cache_dir : string option;
  cache_max_bytes : int;
  state_dir : string option;
  default_samples : int;
  max_memory_mb : int;
  statedir_headroom_mb : int;
  fd_reserve : int;
  slo_target_ms : float;
  slo_objective : float;
  profile_dir : string option;
      (** run the sampling profiler for the daemon's lifetime and write
          folded stacks + a summary here at drain *)
  profile_hz : int;
  log : bool;
}

let default_config =
  {
    socket = "accals.sock";
    tcp = None;
    tcp_token = None;
    jobs = 0;
    max_concurrent = 2;
    max_queue = 256;
    tenant_max_queued = 64;
    tenant_max_running = 0;
    deadline_grace = 2.0;
    quarantine_threshold = 3;
    quarantine_cooldown = 300.0;
    cache_dir = None;
    cache_max_bytes = 0;
    state_dir = None;
    default_samples = 2048;
    max_memory_mb = 0;
    statedir_headroom_mb = 0;
    fd_reserve = 8;
    slo_target_ms = Slo.default_spec.Slo.target_ms;
    slo_objective = Slo.default_spec.Slo.objective;
    profile_dir = None;
    profile_hz = 97;
    log = true;
  }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  origin : [ `Unix | `Tcp ];
  mutable pending : string;
  (* Outbound bytes the non-blocking socket has not accepted yet:
     response chunks oldest-first, with [out_off] the progress into the
     head chunk and [out_bytes] the total for the back-pressure bound. *)
  outbox : string Queue.t;
  mutable out_off : int;
  mutable out_bytes : int;
  mutable closed : bool;
}

(* A client that pipelines requests without reading responses gets this
   much buffered on its behalf; beyond it the connection is dropped so
   one misbehaving client cannot hold daemon memory hostage.  Sized so a
   full result payload (16 MiB request bound, comparable response) plus
   slack fits. *)
let max_outbox_bytes = 64 * 1024 * 1024

(* One hub job per running synthesis job.  Jobs run on the daemon's
   persistent {!Domain_hub} domains (spawned on demand, reused across
   jobs) instead of one ad-hoc [Domain.spawn] each, so steady traffic
   stops paying a domain spawn/join per request.  [w_outcome] is the
   worker's report — the outcome plus the incidents it met on the way —
   and the reclaim condition: OCaml domains cannot be killed, so the
   main loop only ever waits on a job whose body has published it, and
   then [settle]s it.  A wedged worker past its job's deadline + grace
   is moved off the slot-holding list instead (see [sweep_deadlines])
   and its hub domain abandoned — the hub never schedules another job
   behind it, and spawns a replacement domain on demand. *)
type worker = {
  w_handle : Domain_hub.handle;
  w_job : Scheduler.job;
  w_outcome : (Scheduler.outcome * Incident.kind list) option Atomic.t;
}

(* Crash-loop record for one job fingerprint (cache key + budget).
   [q_until] is an absolute [Clock.now] instant; 0.0 means "failures
   observed but not quarantined yet". *)
type quarantine_entry = { mutable q_failures : int; mutable q_until : float }

type t = {
  cfg : config;
  per_job_jobs : int;  (** engine domains per running job *)
  unix_listener : Unix.file_descr;
  tcp_listener : Unix.file_descr option;
  tcp_port : int option;
  pipe_r : Unix.file_descr;  (** self-pipe: workers wake the select loop *)
  pipe_w : Unix.file_descr;
  sched : Scheduler.t;
  cache : Cache.t option;
  mutable conns : conn list;
  hub : Domain_hub.t;  (** persistent job domains *)
  mutable workers : worker list;
  mutable zombies : worker list;
      (** abandoned (deadline-wedged) workers: no longer hold a slot,
          joined opportunistically once they unwind *)
  quarantine : (string, quarantine_entry) Hashtbl.t;
      (** main-loop only: settling and admission both run on the
          select-loop thread *)
  mutable fd_shedding : bool;
      (** inside an fd-pressure episode: one incident per episode, not
          one per refused connection *)
  stopped : bool Atomic.t;
  started_mono : float;
  slo : Slo.t;
  lanes : (string, int) Hashtbl.t;
      (** job id -> concurrency-slot lane, assigned at dispatch; drives
          the per-slot lanes of the server-wide trace (main-loop only) *)
  mutable profiler : Profiler.t option;
  reg : Metrics.t;
  m_submitted : Metrics.counter;
  m_cache_hit_mem : Metrics.counter;
  m_cache_hit_disk : Metrics.counter;
  m_cache_miss : Metrics.counter;
  m_build_named : Metrics.counter;
  m_build_blif : Metrics.counter;
  m_shed : Metrics.counter;
  m_deadline : Metrics.counter;
  m_quarantined : Metrics.counter;
  m_resource : Metrics.counter;
      (** jobs and connections shed by a budget governor *)
  m_zombies_leaked : Metrics.counter;
  g_queue : Metrics.gauge;
  g_running : Metrics.gauge;
  g_cache : Metrics.gauge;
  g_cache_bytes : Metrics.gauge;
  g_conns : Metrics.gauge;
  g_memory : Metrics.gauge;
  g_statedir : Metrics.gauge;
  g_open_fds : Metrics.gauge;
  h_wait : Metrics.histogram;
  h_run : Metrics.histogram;
}

exception Job_cancelled

let queue_tag = "serve-queue"

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.log then Printf.eprintf "[accals-serve] %s\n%!" s)
    fmt

(* -- sockets ------------------------------------------------------------- *)

let listen_unix path =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
   | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let listen_tcp host port =
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "cannot resolve %S" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound_port)

let wake t =
  try ignore (Unix.write t.pipe_w (Bytes.make 1 'w') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 64 with
    | n when n = 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* -- construction -------------------------------------------------------- *)

let create cfg =
  (* A client that disconnects while a response is in flight must cost
     one connection (EPIPE -> close), not kill the daemon: the default
     SIGPIPE action would terminate every tenant's queued and running
     jobs. *)
  Graceful.ignore_sigpipe ();
  let cfg = { cfg with jobs = Config.resolve_jobs cfg.jobs } in
  let max_concurrent = max 1 cfg.max_concurrent in
  let cfg = { cfg with max_concurrent } in
  let unix_listener = listen_unix cfg.socket in
  let tcp_listener, tcp_port =
    match cfg.tcp with
    | None -> (None, None)
    | Some (host, port) ->
      let fd, bound = listen_tcp host port in
      (Some fd, Some bound)
  in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let reg = Metrics.create () in
  let counter ?labels name help = Metrics.counter reg ~help ?labels name in
  let gauge name help = Metrics.gauge reg ~help name in
  let latency_buckets =
    [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 30.0; 120.0; 600.0 |]
  in
  let t =
    {
      cfg;
      per_job_jobs = max 1 (cfg.jobs / max_concurrent);
      unix_listener;
      tcp_listener;
      tcp_port;
      pipe_r;
      pipe_w;
      sched = Scheduler.create ();
      cache = Option.map (fun dir -> Cache.create ~dir) cfg.cache_dir;
      conns = [];
      hub = Domain_hub.create ();
      workers = [];
      zombies = [];
      quarantine = Hashtbl.create 16;
      fd_shedding = false;
      stopped = Atomic.make false;
      started_mono = Clock.now ();
      slo =
        Slo.create
          ~spec:
            {
              Slo.target_ms = cfg.slo_target_ms;
              Slo.objective = cfg.slo_objective;
            }
          ();
      lanes = Hashtbl.create 16;
      profiler = None;
      reg;
      m_submitted =
        counter "accals_server_jobs_submitted_total" "Jobs admitted";
      m_cache_hit_mem =
        counter "accals_server_cache_hits_total"
          ~labels:[ ("source", "memory") ]
          "Submissions answered by a finished in-memory job";
      m_cache_hit_disk =
        counter "accals_server_cache_hits_total"
          ~labels:[ ("source", "disk") ]
          "Submissions answered by the on-disk result cache";
      m_cache_miss =
        counter "accals_server_cache_misses_total"
          "Submissions that had to run the engine";
      m_build_named =
        counter "accals_server_circuit_builds_total"
          ~labels:[ ("source", "named") ]
          "Circuits built (named) or parsed (blif) at admission";
      m_build_blif =
        counter "accals_server_circuit_builds_total"
          ~labels:[ ("source", "blif") ]
          "Circuits built (named) or parsed (blif) at admission";
      m_shed =
        counter "accals_server_shed_total"
          "Submissions rejected by admission control (queue or quota full)";
      m_deadline =
        counter "accals_server_deadline_exceeded_total"
          "Jobs failed for blowing their client-supplied deadline";
      m_quarantined =
        counter "accals_server_quarantined_total"
          "Job fingerprints placed in crash-loop quarantine";
      m_resource =
        counter "accals_server_resource_exhausted_total"
          "Jobs or connections shed by a resource budget governor";
      m_zombies_leaked =
        counter "accals_server_zombies_leaked_total"
          "Abandoned worker domains that outlived the shutdown drain";
      g_queue = gauge "accals_server_queue_depth" "Jobs waiting to run";
      g_running = gauge "accals_server_running_jobs" "Jobs currently running";
      g_cache = gauge "accals_server_cache_entries" "Result cache entries on disk";
      g_cache_bytes =
        gauge "accals_server_cache_bytes" "Result cache size on disk, bytes";
      g_conns = gauge "accals_server_connections" "Open client connections";
      g_memory = gauge "accals_memory_bytes" "Daemon major-heap size, bytes";
      g_statedir =
        gauge "accals_statedir_bytes" "Bytes under --state-dir (and cache)";
      g_open_fds = gauge "accals_open_fds" "Open file descriptors";
      h_wait =
        Metrics.histogram reg ~help:"Queue wait per job, seconds"
          ~buckets:latency_buckets "accals_server_job_wait_seconds";
      h_run =
        Metrics.histogram reg ~help:"Engine run per job, seconds"
          ~buckets:latency_buckets "accals_server_job_run_seconds";
    }
  in
  log t "listening on %s%s (engine domains: %d total, %d per job, %d concurrent jobs)"
    cfg.socket
    (match tcp_port with
     | Some p -> Printf.sprintf " and tcp port %d" p
     | None -> "")
    cfg.jobs t.per_job_jobs max_concurrent;
  t

let tcp_port t = t.tcp_port
let stop t =
  Atomic.set t.stopped true;
  wake t

let request_counter t name =
  Metrics.counter t.reg ~help:"Requests handled"
    ~labels:[ ("req", name) ]
    "accals_server_requests_total"

let finished_counter t state =
  Metrics.counter t.reg ~help:"Jobs finished"
    ~labels:[ ("state", state) ]
    "accals_server_jobs_finished_total"

(* Bytes under the state dir plus the cache's, each file counted once: a
   cache inside the state dir is already part of the state-dir walk. *)
let statedir_bytes t =
  let real d = try Unix.realpath d with Unix.Unix_error _ -> d in
  let inside dir sub =
    let dir = real dir and sub = real sub in
    sub = dir || String.starts_with ~prefix:(Filename.concat dir "") sub
  in
  let state =
    Option.fold ~none:0 ~some:Budget.Disk.usage_bytes t.cfg.state_dir
  in
  match (t.cache, t.cfg.state_dir) with
  | Some c, Some d when inside d (Cache.dir c) -> state
  | Some c, _ -> state + Cache.bytes c
  | None, _ -> state

let update_gauges t =
  let counts = Scheduler.counts t.sched in
  let n s = float_of_int (Option.value (List.assoc_opt s counts) ~default:0) in
  Metrics.set t.g_queue (n Scheduler.Queued);
  Metrics.set t.g_running (n Scheduler.Running);
  Metrics.set t.g_conns (float_of_int (List.length t.conns));
  Option.iter
    (fun c ->
      Metrics.set t.g_cache (float_of_int (Cache.size c));
      Metrics.set t.g_cache_bytes (float_of_int (Cache.bytes c)))
    t.cache;
  Metrics.set t.g_memory
    (float_of_int
       ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)));
  Metrics.set t.g_statedir (float_of_int (statedir_bytes t));
  Option.iter
    (fun n -> Metrics.set t.g_open_fds (float_of_int n))
    (Budget.Fd.open_fds ())

let metrics t =
  update_gauges t;
  (* The SLO module keeps its own registry (per-tenant instruments are
     created on demand there); the exposition is the union. *)
  Metrics.merge (Metrics.snapshot t.reg) (Slo.registry_snapshot t.slo)

(* -- incidents and overload hints ---------------------------------------- *)

let record_incident t kind =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir -> (
    Budget.Disk.ensure_dir dir;
    try
      Incident.append_jsonl
        ~path:(Filename.concat dir "incidents.jsonl")
        [ Incident.make ~round:0 kind ]
    with Sys_error _ -> ())

(* How long a shed client should wait before retrying: the observed
   average job run time scaled by the backlog per slot, clamped to
   [100ms, 60s].  A heuristic, not a promise — but it is derived from
   this daemon's actual service rate, so a queue of long syntheses hints
   minutes where a queue of cache-warm repeats hints milliseconds. *)
let retry_after_ms t =
  let avg =
    match Metrics.histogram_value t.h_run with
    | Metrics.Histogram { sum; count; _ } when count > 0 ->
      sum /. float_of_int count
    | _ -> 0.5
  in
  let queued, running = Scheduler.totals t.sched in
  let backlog =
    float_of_int (queued + running) /. float_of_int t.cfg.max_concurrent
  in
  let hint_s = avg *. Float.max 1.0 backlog in
  int_of_float (Float.max 100.0 (Float.min 60_000.0 (hint_s *. 1000.0)))

(* -- quarantine ----------------------------------------------------------- *)

(* A poison job is identified by what reaches the engine: the cache key
   (digest + result-determining parameters) plus the budget, which
   shapes the run.  All quarantine state lives on the main loop. *)
let fingerprint_of ~key ~budget =
  key ^ match budget with None -> "" | Some b -> Printf.sprintf "-b%h" b

let fingerprint job =
  fingerprint_of ~key:(Scheduler.key job)
    ~budget:(Scheduler.spec job).Protocol.budget

let quarantined t fp =
  match Hashtbl.find_opt t.quarantine fp with
  | Some e when e.q_until > Clock.now () ->
    Some (int_of_float (Float.ceil ((e.q_until -. Clock.now ()) *. 1000.0)))
  | _ -> None

(* A worker death that is the job's fault counts toward its fingerprint's
   quarantine; a success clears the record.  A deadline expiry is the
   watchdog's verdict and a resource shed is the budget governor's —
   neither is the job's fault, so neither counts. *)
let note_quarantine t job (outcome : Scheduler.outcome) =
  if t.cfg.quarantine_threshold > 0 then
    let fp = fingerprint job in
    match outcome with
    | `Failed (Scheduler.Error _) ->
      let entry =
        match Hashtbl.find_opt t.quarantine fp with
        | Some e -> e
        | None ->
          let e = { q_failures = 0; q_until = 0.0 } in
          Hashtbl.add t.quarantine fp e;
          e
      in
      entry.q_failures <- entry.q_failures + 1;
      if
        entry.q_failures >= t.cfg.quarantine_threshold
        && entry.q_until <= Clock.now ()
      then begin
        entry.q_until <- Clock.now () +. t.cfg.quarantine_cooldown;
        Metrics.incr t.m_quarantined;
        log t "quarantined %s for %.0fs after %d abnormal worker death(s)" fp
          t.cfg.quarantine_cooldown entry.q_failures;
        record_incident t
          (Incident.Job_quarantined
             {
               fingerprint = fp;
               failures = entry.q_failures;
               cooldown_s = t.cfg.quarantine_cooldown;
             })
      end
    | `Done _ -> Hashtbl.remove t.quarantine fp
    | `Failed _ | `Cancelled -> ()

(* -- settling ------------------------------------------------------------ *)

(* The one place a job becomes terminal.  A worker's outcome, a queued
   cancel, a deadline expiry and the workers the shutdown drain joins
   all land here on the select loop, so the scheduler transition and
   every tally happen together and exactly once: a status that shows a
   terminal job is never ahead of the metrics, health or SLO.  An
   outcome for a job that is already terminal (an abandoned worker's
   late report) is discarded; the incidents its worker met are still
   recorded, since they happened either way. *)
let settle ?(incidents = []) t job (outcome : Scheduler.outcome) =
  List.iter (record_incident t) incidents;
  match Scheduler.settle t.sched job outcome with
  | None -> ()
  | Some phase ->
    let v = Scheduler.view t.sched job in
    Metrics.incr
      (finished_counter t (Scheduler.state_to_string v.Scheduler.v_state));
    (* SLO accounting: good/violated on success, a bounded-cardinality
       failure kind otherwise (free-form exception text must not mint
       Prometheus label values). *)
    let failure =
      match outcome with
      | `Done _ -> None
      | `Cancelled -> Some "cancelled"
      | `Failed (Scheduler.Error _) -> Some "error"
      | `Failed f -> Some (Scheduler.failure_to_string f)
    in
    let tenant = v.Scheduler.v_tenant in
    (match (phase, failure) with
     | Scheduler.Queued, Some kind ->
       (* Never started: an outcome without latencies. *)
       Slo.observe_shed t.slo ~tenant ~kind
     | _ ->
       let wait_s = Option.value v.Scheduler.v_wait_s ~default:0.0 in
       let run_s = Option.value v.Scheduler.v_run_s ~default:0.0 in
       Metrics.observe t.h_wait wait_s;
       Metrics.observe t.h_run run_s;
       Slo.observe_job t.slo ~tenant ?failure ~wait_s ~run_s
         ~total_s:(wait_s +. run_s) ());
    (match outcome with
     | `Failed Scheduler.Deadline_exceeded ->
       Metrics.incr t.m_deadline;
       let phase = Scheduler.state_to_string phase in
       let deadline_s =
         Option.value (Scheduler.spec job).Protocol.deadline ~default:0.0
       in
       log t "%s exceeded its %.1fs deadline while %s" (Scheduler.id job)
         deadline_s phase;
       record_incident t
         (Incident.Deadline_exceeded
            { job = Scheduler.id job; phase; deadline_s })
     | `Failed Scheduler.Resource_exhausted -> Metrics.incr t.m_resource
     | _ -> ());
    note_quarantine t job outcome

(* A queued job is settled on the spot; a running one is asked to unwind
   at its next round boundary and settles when its worker reports. *)
let cancel t job =
  match Scheduler.state t.sched job with
  | Scheduler.Queued ->
    settle t job `Cancelled;
    "cancelled"
  | Scheduler.Running ->
    Scheduler.request_cancel t.sched job;
    "cancel_requested"
  | Scheduler.Done | Scheduler.Failed | Scheduler.Cancelled ->
    "already_finished"

(* -- admission ----------------------------------------------------------- *)

(* Structured admission failures, so [handle_submit] can answer with a
   machine-readable code and a retry hint instead of prose alone. *)
type reject =
  | Bad_request of string
  | Overloaded of { scope : string; retry_after_ms : int }
  | Quarantined of { fingerprint : string; retry_after_ms : int }

let reject_to_string = function
  | Bad_request msg -> msg
  | Overloaded { scope; retry_after_ms } ->
    Printf.sprintf "overloaded (%s); retry in ~%dms" scope retry_after_ms
  | Quarantined { fingerprint; retry_after_ms } ->
    Printf.sprintf "quarantined (%s); retry in ~%dms" fingerprint
      retry_after_ms

let build_circuit t = function
  | Protocol.Named name -> (
    Metrics.incr t.m_build_named;
    match Bench_suite.load name with
    | net -> Ok net
    | exception Not_found -> Error (Printf.sprintf "unknown circuit %S" name))
  | Protocol.Blif_text text -> (
    Metrics.incr t.m_build_blif;
    match Blif.parse_string text with
    | net -> Ok net
    | exception Blif.Parse_error msg -> Error ("blif: " ^ msg))

(* [admit] is the single path every submission takes (socket submits and
   checkpointed re-admissions alike): resolve the source to its digest
   (from the scheduler's index if an earlier job was admitted with it,
   else by building it), cache-key, then dedup against finished/in-flight
   work, and only if the job would actually consume a queue slot apply
   admission control (quarantine, global queue bound, per-tenant queued
   quota) and build the circuit its worker needs.  Coalesced and cached
   answers are never shed: they cost no slot, and for a repeat source no
   circuit build. *)
let admit t (spec : Protocol.job_spec) =
  let source = spec.Protocol.source in
  let resolved =
    match Scheduler.resolve t.sched source with
    | Some (digest, circuit) -> Ok (digest, circuit, None)
    | None ->
      Result.map
        (fun net -> (Network.digest net, Network.name net, Some net))
        (build_circuit t source)
  in
  match resolved with
  | Error msg -> Error (Bad_request msg)
  | Ok (digest, circuit, built) ->
    let samples =
      Option.value spec.Protocol.samples ~default:t.cfg.default_samples
    in
    let key =
      Cache.key ~digest ~metric:spec.Protocol.metric ~bound:spec.Protocol.bound
        ~samples ~seed:spec.Protocol.seed
    in
    let lookup_begin = Clock.now () in
    (match Scheduler.active_by_key t.sched key ~budget:spec.Protocol.budget with
     | Some j ->
       let done_ = Scheduler.state t.sched j = Scheduler.Done in
       if done_ then Metrics.incr t.m_cache_hit_mem;
       log t "%s %s onto %s" (if done_ then "cache hit (memory):" else "coalesced")
         circuit (Scheduler.id j);
       Ok (j, `Coalesced done_)
     | None -> (
       match Option.bind t.cache (fun c -> Cache.find c key) with
       | Some entry ->
         Metrics.incr t.m_submitted;
         Metrics.incr t.m_cache_hit_disk;
         let lookup_s = Clock.now () -. lookup_begin in
         let j =
           Scheduler.submit t.sched ~spec ~circuit ~digest ~key ~cached:entry
             ~lookup_s ()
         in
         log t "cache hit (disk): %s -> %s" circuit (Scheduler.id j);
         Ok (j, `Cached)
       | None -> (
         let fp = fingerprint_of ~key ~budget:spec.Protocol.budget in
         match quarantined t fp with
         | Some retry_after_ms ->
           log t "refused %s: fingerprint %s is quarantined" circuit fp;
           Slo.observe_shed t.slo ~tenant:spec.Protocol.tenant
             ~kind:"quarantined";
           Error (Quarantined { fingerprint = fp; retry_after_ms })
         | None ->
           let shed scope =
             Metrics.incr t.m_shed;
             Slo.observe_shed t.slo ~tenant:spec.Protocol.tenant ~kind:"shed";
             let retry_after_ms = retry_after_ms t in
             log t "shed %s (%s; retry in ~%dms)" circuit scope retry_after_ms;
             Error (Overloaded { scope; retry_after_ms })
           in
           let queued_total, _ = Scheduler.totals t.sched in
           if t.cfg.max_queue > 0 && queued_total >= t.cfg.max_queue then
             shed "queue full"
           else
             let tenant_queued, _ =
               Scheduler.tenant_load t.sched spec.Protocol.tenant
             in
             if
               t.cfg.tenant_max_queued > 0
               && tenant_queued >= t.cfg.tenant_max_queued
             then shed (Printf.sprintf "tenant %S queue quota" spec.Protocol.tenant)
             else
               let lookup_s = Clock.now () -. lookup_begin in
               let net =
                 match built with
                 | Some net -> Ok net
                 | None -> build_circuit t source
               in
               match net with
               | Error msg -> Error (Bad_request msg)
               | Ok net ->
                 Metrics.incr t.m_submitted;
                 Metrics.incr t.m_cache_miss;
                 let j =
                   Scheduler.submit t.sched ~spec ~circuit ~digest ~key ~net
                     ~lookup_s ()
                 in
                 log t "queued %s as %s (key %s)" circuit (Scheduler.id j) key;
                 Ok (j, `Queued))))

let restore_queue t =
  match t.cfg.state_dir with
  | None -> ()
  | Some dir -> (
    let path = Filename.concat dir "queue.ckpt" in
    match
      (try Checkpoint.load ~path ~tag:queue_tag
       with Checkpoint.Corrupt msg ->
         log t "ignoring corrupt queue checkpoint: %s" msg;
         None)
    with
    | None -> ()
    | Some (specs : Protocol.job_spec list) ->
      (try Sys.remove path with Sys_error _ -> ());
      List.iter
        (fun spec ->
          match admit t spec with
          | Ok (j, _) -> log t "re-admitted %s from queue checkpoint" (Scheduler.id j)
          | Error r -> log t "dropped checkpointed job: %s" (reject_to_string r))
        specs)

(* -- workers ------------------------------------------------------------- *)

(* Engine traces can run to hundreds of thousands of events on a long
   synthesis; the merged per-job trace keeps the daemon's memory bounded
   by only attaching traces below this count (the run/lifecycle spans
   are always there — it is the per-round detail that is shed). *)
let max_attached_trace_events = 20_000

(* Disk governor, cache branch: keep [--statedir-headroom-mb] free
   proactively, pre-evict to the byte cap inside [Cache.store], and treat
   a real ENOSPC as evict-then-retry-once — the entry is an optimization,
   the filesystem's last blocks are not worth crashing over.  Returns the
   disk incident when the store hit ENOSPC. *)
let store_result t c entry =
  let headroom = t.cfg.statedir_headroom_mb * 1024 * 1024 in
  if
    headroom > 0
    && not
         (Budget.Disk.has_headroom ~dir:(Cache.dir c) ~headroom_bytes:headroom)
  then begin
    let ev = Cache.evict c ~max_bytes:(Cache.bytes c / 2) in
    log t "state dir under %d MiB free; evicted %d cache entries"
      t.cfg.statedir_headroom_mb
      (ev.Cache.removed_corrupt + ev.Cache.removed_lru)
  end;
  let store () = Cache.store ~max_bytes:t.cfg.cache_max_bytes c entry in
  match store () with
  | () -> []
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) ->
    let observed =
      match Budget.Disk.free_bytes (Cache.dir c) with
      | Some n -> float_of_int n
      | None -> 0.0
    in
    let ev = Cache.evict c ~max_bytes:(Cache.bytes c / 2) in
    log t "cache store hit ENOSPC; evicted %d entries and retrying"
      (ev.Cache.removed_corrupt + ev.Cache.removed_lru);
    (try store ()
     with e ->
       log t "cache store failed for %s after eviction: %s" entry.Cache.key
         (Printexc.to_string e));
    [
      Incident.Resource_exhausted
        { resource = "disk"; limit = float_of_int headroom; observed };
    ]
  | exception e ->
    log t "cache store failed for %s: %s" entry.Cache.key
      (Printexc.to_string e);
    []

(* Runs on the job's hub domain: run the engine, store the cache entry
   and attach the engine trace, then return the outcome (an exception is
   the caller's [`Failed]) for [settle] — the worker makes no terminal
   transition and no tally itself. *)
let worker_body t job net =
  let spec = Scheduler.spec job in
  Scheduler.note_run_begin t.sched job;
  (* Every engine observation for this job — spans, structured events,
     round progress — flows through a job-private telemetry handle, so
     concurrent jobs never interleave in each other's traces.  The
     job's pool workers inherit it (Pool.create captures the creating
     domain's effective handle). *)
  let tr = Tracer.create () in
  let last_progress = ref 0.0 in
  let handle =
    Telemetry.make ~tracer:tr
      ~on_event:(fun ev ->
        Scheduler.record_event t.sched job "engine" [ ("detail", ev) ])
      ~on_progress:(fun ~round ~max_rounds ~error ~area ->
        (* Heartbeat, not a firehose: at most ~2 progress events per
           second land on the job's event log, however fast rounds go. *)
        let now = Clock.now () in
        if now -. !last_progress >= 0.5 then begin
          last_progress := now;
          Scheduler.record_event t.sched job "progress"
            [
              ("round", Json.Int round);
              ("max_rounds", Json.Int max_rounds);
              ("error", Json.Float error);
              ("area", Json.Float area);
            ]
        end)
      ()
  in
  (* The engine trace is attached on failure too — a post-mortem wants
     the rounds that led up to the crash, not just the happy path. *)
  let attach_trace () =
    let n = Tracer.event_count tr in
    if n > 0 && n <= max_attached_trace_events then
      Scheduler.attach_trace t.sched job
        (Tracer.events_json ~ts_offset_us:(Tracer.epoch_us tr) ~tid_offset:1
           ~pid:1
           ~thread_name:(fun tid ->
             if tid = 0 then "engine"
             else Printf.sprintf "engine-worker-%d" tid)
           tr)
  in
  Fun.protect ~finally:attach_trace (fun () ->
    try
      let samples =
        Option.value spec.Protocol.samples ~default:t.cfg.default_samples
      in
      let base =
        {
          Config.default with
          Config.samples;
          seed = spec.Protocol.seed;
          jobs = t.per_job_jobs;
          run_deadline = spec.Protocol.budget;
          max_memory_mb = t.cfg.max_memory_mb;
        }
      in
      let config = Config.for_network ~base net in
      (* Raising from the checkpoint hook aborts the run at a round
         boundary and unwinds through the engine's [Fun.protect], which
         shuts the job's pool down — cancellation frees its domains. *)
      let checkpoint _snap =
        if Scheduler.cancel_requested job then raise Job_cancelled
      in
      let report =
        Telemetry.with_handle handle (fun () ->
            Engine.run ~config ~checkpoint net ~metric:spec.Protocol.metric
              ~error_bound:spec.Protocol.bound)
      in
      match
        List.find_map
          (fun i ->
            match i.Incident.kind with
            | Incident.Resource_exhausted _ -> Some i.Incident.kind
            | _ -> None)
          report.Engine.incidents
      with
      | Some kind ->
        (* The engine's memory governor ran out of non-destructive
           responses: it checkpointed the run and shed it.  The partial
           result is not published — the job fails with the structured
           resource verdict, which admission treats like a deadline
           (never quarantine-worthy). *)
        (`Failed Scheduler.Resource_exhausted, [ kind ])
      | None ->
        let entry =
          {
            Cache.key = Scheduler.key job;
            report = Report_json.to_json ~rounds:true report;
            blif = Blif.to_string report.Engine.approximate;
          }
        in
        let degraded = report.Engine.degraded in
        (* A budget-degraded result is request-specific; only converged
           results are content-addressable. *)
        let incidents =
          match t.cache with
          | Some c when not degraded -> store_result t c entry
          | _ -> []
        in
        (`Done (entry, degraded), incidents)
    with Job_cancelled -> (`Cancelled, []))

(* Join a worker whose outcome is published (the thunk is returning, so
   the join is short) and settle its job. *)
let reap_worker t w =
  Domain_hub.wait w.w_handle;
  Option.iter
    (fun (outcome, incidents) -> settle ~incidents t w.w_job outcome)
    (Atomic.get w.w_outcome)

let completed w = Atomic.get w.w_outcome <> None

(* Reap only workers that have published ([w_outcome]): a scheduler-state
   check would block on a worker whose job the watchdog failed while the
   domain is still crunching. *)
let reap t =
  let reap_list workers =
    let finished, alive = List.partition completed workers in
    List.iter (reap_worker t) finished;
    alive
  in
  t.workers <- reap_list t.workers;
  t.zombies <- reap_list t.zombies

(* Deadline enforcement, run every loop tick.  Two stages: any queued or
   running job past its deadline is settled as [deadline_exceeded]
   immediately (which sets the cooperative cancel flag, so a live worker
   unwinds at the next round boundary and its late outcome is
   discarded); a worker still not done at deadline + grace is abandoned
   — moved off the slot-holding list so [dispatch] reuses the slot —
   because domains cannot be killed. *)
let sweep_deadlines t =
  let now = Clock.now () in
  List.iter
    (fun job -> settle t job (`Failed Scheduler.Deadline_exceeded))
    (Scheduler.expired t.sched ~now);
  let wedged, alive =
    List.partition
      (fun w ->
        (not (completed w))
        &&
        match Scheduler.deadline_mono w.w_job with
        | Some d -> now >= d +. t.cfg.deadline_grace
        | None -> false)
      t.workers
  in
  if wedged <> [] then begin
    t.workers <- alive;
    List.iter
      (fun w ->
        log t "abandoning wedged worker for %s (deadline + %.1fs grace)"
          (Scheduler.id w.w_job) t.cfg.deadline_grace;
        (* The hub domain never takes another job and a fresh domain is
           spawned on demand, so a wedged job cannot wedge the slot. *)
        Domain_hub.abandon t.hub w.w_handle)
      wedged;
    t.zombies <- wedged @ t.zombies
  end

let dispatch t =
  let continue = ref true in
  while !continue && List.length t.workers < t.cfg.max_concurrent do
    let tenant_max_running =
      if t.cfg.tenant_max_running > 0 then Some t.cfg.tenant_max_running
      else None
    in
    match Scheduler.pick ?tenant_max_running t.sched with
    | None -> continue := false
    | Some job -> (
      match Scheduler.take_circuit t.sched job with
      | None ->
        settle t job
          (`Failed (Scheduler.Error "internal error: circuit not retained"))
      | Some net ->
        log t "start %s" (Scheduler.id job);
        (* Stable slot lane for the server-wide trace: the smallest
           lane no live worker holds, so a job's run span lands on the
           concurrency slot it actually occupied. *)
        (let used =
           List.filter_map
             (fun w -> Hashtbl.find_opt t.lanes (Scheduler.id w.w_job))
             (t.workers @ t.zombies)
         in
         let rec free lane = if List.mem lane used then free (lane + 1) else lane in
         Hashtbl.replace t.lanes (Scheduler.id job) (free 1));
        let outcome = Atomic.make None in
        let h =
          Domain_hub.submit t.hub (fun () ->
              let report =
                try worker_body t job net
                with e -> (`Failed (Scheduler.Error (Printexc.to_string e)), [])
              in
              Atomic.set outcome (Some report);
              wake t)
        in
        t.workers <-
          { w_handle = h; w_job = job; w_outcome = outcome } :: t.workers)
  done

(* -- request handling ---------------------------------------------------- *)

let opt_json f = function None -> Json.Null | Some x -> f x

let view_fields (v : Scheduler.view) =
  [
    ("job", Json.String v.Scheduler.v_id);
    ("state", Json.String (Scheduler.state_to_string v.Scheduler.v_state));
    ("circuit", Json.String v.Scheduler.v_circuit);
    ("metric", Json.String v.Scheduler.v_metric);
    ("bound", Json.Float v.Scheduler.v_bound);
    ("tenant", Json.String v.Scheduler.v_tenant);
    ("priority", Json.Int v.Scheduler.v_priority);
    ("cached", Json.Bool v.Scheduler.v_cached);
    ("degraded", Json.Bool v.Scheduler.v_degraded);
    ("queue_position", opt_json (fun i -> Json.Int i) v.Scheduler.v_queue_position);
    ("submitted_at", Json.Float v.Scheduler.v_submitted_at);
    ("wait_s", opt_json (fun x -> Json.Float x) v.Scheduler.v_wait_s);
    ("run_s", opt_json (fun x -> Json.Float x) v.Scheduler.v_run_s);
    ("failure", opt_json (fun s -> Json.String s) v.Scheduler.v_failure);
  ]

(* A resource-shed job's status carries the structured code and a retry
   hint, exactly like an admission shed — the client's backoff logic
   need not care whether the governor ran at admission or mid-run. *)
let resource_fields t j =
  if Scheduler.failure t.sched j = Some Scheduler.Resource_exhausted then
    [
      ("code", Json.String "resource_exhausted");
      ("retry_after_ms", Json.Int (retry_after_ms t));
    ]
  else []

let with_job t id f =
  match Scheduler.find t.sched id with
  | None -> Protocol.error_response (Printf.sprintf "unknown job %S" id)
  | Some j -> f j

let handle_submit t spec =
  match admit t spec with
  | Error (Bad_request msg) -> Protocol.error_response msg
  | Error (Overloaded { scope; retry_after_ms }) ->
    Protocol.error_response_code ~code:"overloaded"
      ~extra:[ ("retry_after_ms", Json.Int retry_after_ms) ]
      (Printf.sprintf "overloaded: %s" scope)
  | Error (Quarantined { fingerprint; retry_after_ms }) ->
    Protocol.error_response_code ~code:"quarantined"
      ~extra:[ ("retry_after_ms", Json.Int retry_after_ms) ]
      (Printf.sprintf
         "fingerprint %s is quarantined after repeated worker failures"
         fingerprint)
  | Ok (j, how) ->
    let v = Scheduler.view t.sched j in
    let cached =
      match how with `Cached | `Coalesced true -> true | _ -> false
    in
    let coalesced = match how with `Coalesced _ -> true | _ -> false in
    (* The view's "cached" field describes the job; for a submit response
       the effective answer (which includes coalescing onto a finished
       duplicate) is what the client needs. *)
    let fields =
      List.filter (fun (k, _) -> k <> "cached") (view_fields v)
    in
    Protocol.ok_response
      (fields
      @ [
          ("cached", Json.Bool cached);
          ("coalesced", Json.Bool coalesced);
          (* The effective trace-context id (the client's, or minted at
             admission) — what to pass to the [trace] request. *)
          ("trace_id", Json.String (Scheduler.trace_id j));
        ])

let handle_request t req =
  match req with
  | Protocol.Submit spec -> handle_submit t spec
  | Protocol.Status id -> with_job t id (fun j ->
      Protocol.ok_response
        (view_fields (Scheduler.view t.sched j) @ resource_fields t j))
  | Protocol.Result id ->
    with_job t id (fun j ->
        let fields =
          view_fields (Scheduler.view t.sched j) @ resource_fields t j
        in
        match Scheduler.result t.sched j with
        | Some e ->
          (* First successful fetch closes the result.delivery span. *)
          Scheduler.note_delivered t.sched j;
          Protocol.ok_response
            (fields
            @ [ ("report", e.Cache.report); ("blif", Json.String e.Cache.blif) ])
        | None -> Protocol.ok_response fields)
  | Protocol.Cancel id ->
    with_job t id (fun j ->
        let outcome = cancel t j in
        Protocol.ok_response
          (view_fields (Scheduler.view t.sched j)
          @ [ ("cancel", Json.String outcome) ]))
  | Protocol.List ->
    let jobs =
      List.map
        (fun j -> Json.Obj (view_fields (Scheduler.view t.sched j)))
        (Scheduler.all t.sched)
    in
    Protocol.ok_response [ ("jobs", Json.List jobs) ]
  | Protocol.Metrics ->
    Protocol.ok_response
      [ ("metrics", Json.String (Metrics.to_prometheus (metrics t))) ]
  | Protocol.Trace id ->
    with_job t id (fun j ->
        Protocol.ok_response
          [ ("trace", Json.List (Scheduler.trace_events t.sched j)) ])
  | Protocol.Events id ->
    with_job t id (fun j ->
        Protocol.ok_response
          [ ("events", Json.List (Scheduler.events t.sched j)) ])
  | Protocol.Slo -> (
    match Slo.to_json t.slo with
    | Json.Obj fields -> Protocol.ok_response fields
    | other -> Protocol.ok_response [ ("slo", other) ])
  | Protocol.Health ->
    (* Everything a load balancer or the CI soak needs in one cheap,
       unprivileged round-trip: the same counters and probes the metrics
       exposition reads.  [open_fds] exposes the daemon's own fd count
       (via /proc; -1 where unavailable) so a soak can assert the daemon
       does not leak descriptors under flood. *)
    let queued, running = Scheduler.totals t.sched in
    let total c = Json.Int (int_of_float (Metrics.counter_value c)) in
    Protocol.ok_response
      [
        ("queue_depth", Json.Int queued);
        ("running", Json.Int running);
        ("slots", Json.Int t.cfg.max_concurrent);
        ("slots_free",
         Json.Int (max 0 (t.cfg.max_concurrent - List.length t.workers)));
        ("max_queue", Json.Int t.cfg.max_queue);
        ("zombies", Json.Int (List.length t.zombies));
        ("hub_domains_spawned", Json.Int (Domain_hub.spawned t.hub));
        ("hub_domains_live", Json.Int (Domain_hub.live t.hub));
        ("connections", Json.Int (List.length t.conns));
        ("cache_entries",
         opt_json (fun c -> Json.Int (Cache.size c)) t.cache);
        ("cache_bytes",
         opt_json (fun c -> Json.Int (Cache.bytes c)) t.cache);
        ("shed_total", total t.m_shed);
        ("deadline_exceeded_total", total t.m_deadline);
        ("quarantined_total", total t.m_quarantined);
        ("resource_exhausted_total", total t.m_resource);
        ("zombies_leaked_total", total t.m_zombies_leaked);
        ("uptime_s", Json.Float (Clock.now () -. t.started_mono));
        (* [uptime_seconds] is the documented name; [uptime_s] stays for
           existing probes. *)
        ("uptime_seconds", Json.Float (Clock.now () -. t.started_mono));
        ("protocol_version", Json.Int Protocol.version);
        ("build", Build_info.to_json ());
        ("open_fds",
         Json.Int (Option.value (Budget.Fd.open_fds ()) ~default:(-1)));
        ("fd_limit",
         Json.Int (Option.value (Budget.Fd.limit ()) ~default:(-1)));
        ("memory_bytes",
         Json.Int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)));
        ("statedir_bytes", Json.Int (statedir_bytes t));
      ]
  | Protocol.Ping ->
    Protocol.ok_response
      [
        ("pong", Json.Bool true);
        ("uptime_s", Json.Float (Clock.now () -. t.started_mono));
        ("jobs", Json.Int t.cfg.jobs);
        ("max_concurrent", Json.Int t.cfg.max_concurrent);
      ]
  | Protocol.Shutdown ->
    Atomic.set t.stopped true;
    Protocol.ok_response [ ("stopping", Json.Bool true) ]

let request_name = function
  | Protocol.Submit _ -> "submit"
  | Protocol.Status _ -> "status"
  | Protocol.Result _ -> "result"
  | Protocol.Cancel _ -> "cancel"
  | Protocol.List -> "list"
  | Protocol.Metrics -> "metrics"
  | Protocol.Health -> "health"
  | Protocol.Trace _ -> "trace"
  | Protocol.Events _ -> "events"
  | Protocol.Slo -> "slo"
  | Protocol.Ping -> "ping"
  | Protocol.Shutdown -> "shutdown"

(* Constant-time comparison: a byte-wise early-exit compare would leak
   the token prefix through response timing. *)
let token_eq a b =
  String.length a = String.length b
  &&
  let d = ref 0 in
  String.iteri (fun i c -> d := !d lor (Char.code c lxor Char.code b.[i])) a;
  !d = 0

(* The Unix socket is the trusted control plane (filesystem permissions
   on the socket path).  Over TCP, privileged requests need the shared
   token; without [--tcp-token] configured they are refused outright. *)
let authorized t origin req ~token =
  match origin with
  | `Unix -> true
  | `Tcp ->
    (not (Protocol.privileged req))
    || (match (t.cfg.tcp_token, token) with
       | Some secret, Some presented -> token_eq secret presented
       | _ -> false)

let handle_line t origin line =
  match Protocol.parse_request_v line with
  | Error (Protocol.Unsupported_version _ as r) ->
    (* Structured: a newer client learns the server's version from the
       first response instead of misparsing a generic error. *)
    Metrics.incr (request_counter t "invalid");
    Protocol.error_response_code ~code:"unsupported_version"
      ~extra:[ ("v", Json.Int Protocol.version) ]
      (Protocol.reject_message r)
  | Error (Protocol.Malformed msg) ->
    Metrics.incr (request_counter t "invalid");
    Protocol.error_response msg
  | Ok (req, token) ->
    if not (authorized t origin req ~token) then begin
      Metrics.incr (request_counter t "unauthorized");
      Protocol.error_response
        (Printf.sprintf "%s is not allowed over TCP%s" (request_name req)
           (match t.cfg.tcp_token with
            | None -> " (daemon started without --tcp-token)"
            | Some _ -> " without a valid \"token\""))
    end
    else begin
      Metrics.incr (request_counter t (request_name req));
      handle_request t req
    end

(* -- connection plumbing ------------------------------------------------- *)

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

(* Write as much of the outbox as the non-blocking socket will take
   right now; the rest waits for the select loop to report the fd
   writable again.  The daemon never blocks on a slow or stalled reader
   — that would stall every other tenant's accepts and dispatches. *)
let rec flush_outbox t c =
  if (not c.closed) && not (Queue.is_empty c.outbox) then begin
    let head = Queue.peek c.outbox in
    let len = String.length head - c.out_off in
    match Unix.write_substring c.fd head c.out_off len with
    | n ->
      c.out_bytes <- c.out_bytes - n;
      if n = len then begin
        ignore (Queue.pop c.outbox);
        c.out_off <- 0;
        flush_outbox t c
      end
      else c.out_off <- c.out_off + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ ->
      log t "dropping connection %s (write failed)" c.peer;
      close_conn t c
  end

let send t c resp =
  if not c.closed then begin
    let s = Json.to_string resp ^ "\n" in
    Queue.push s c.outbox;
    c.out_bytes <- c.out_bytes + String.length s;
    if c.out_bytes > max_outbox_bytes then begin
      log t "dropping connection %s (outbound buffer over %d bytes)" c.peer
        max_outbox_bytes;
      close_conn t c
    end
    else flush_outbox t c
  end

(* Shutdown-time flush: switch the socket back to blocking with a short
   send timeout so the final response (e.g. the shutdown ack) reaches a
   well-behaved client, without letting a stalled one hold up drain. *)
let flush_outbox_closing t c =
  if (not c.closed) && not (Queue.is_empty c.outbox) then begin
    (try
       Unix.clear_nonblock c.fd;
       Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO 1.0
     with Unix.Unix_error _ -> ());
    flush_outbox t c
  end

(* Fd governor: refuse a connection {e before} the descriptor table is
   exhausted.  The listener is readable, so this [accept] still succeeds
   — but admitting the connection would leave fewer than [fd_reserve]
   descriptors for the daemon's own files (cache entries, checkpoints,
   incident log), whose [open] failing is far worse than one client
   retrying.  The peer gets a structured one-line error and a retry
   hint, never a connection reset from a failing [accept]. *)
let shed_accept t listener =
  match Unix.accept listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    Metrics.incr t.m_resource;
    if not t.fd_shedding then begin
      (* One incident per pressure episode, not one per refused
         connection — a flood must not flood incidents.jsonl too. *)
      t.fd_shedding <- true;
      let count probe = match probe with Some n -> float_of_int n | None -> 0.0 in
      let observed = count (Budget.Fd.open_fds ()) in
      let limit = count (Budget.Fd.limit ()) in
      log t "fd budget: %.0f of %.0f descriptors open (reserve %d); \
             shedding new connections" observed limit t.cfg.fd_reserve;
      record_incident t
        (Incident.Resource_exhausted { resource = "fds"; limit; observed })
    end;
    let resp =
      Json.to_string
        (Protocol.error_response_code ~code:"resource_exhausted"
           ~extra:[ ("retry_after_ms", Json.Int (retry_after_ms t)) ]
           "file descriptor budget exhausted")
      ^ "\n"
    in
    (try
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
       ignore (Unix.write_substring fd resp 0 (String.length resp))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let accept_conn t listener ~origin =
  if not (Budget.Fd.should_accept ~reserve:t.cfg.fd_reserve) then
    shed_accept t listener
  else begin
    if t.fd_shedding then begin
      t.fd_shedding <- false;
      log t "fd pressure cleared; accepting connections again"
    end;
    match Unix.accept listener with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | fd, addr ->
    Unix.set_nonblock fd;
    let peer =
      match addr with
      | Unix.ADDR_UNIX _ -> "unix"
      | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    in
    t.conns <-
      {
        fd;
        peer;
        origin;
        pending = "";
        outbox = Queue.create ();
        out_off = 0;
        out_bytes = 0;
        closed = false;
      }
      :: t.conns
  end

let rec process_pending t c =
  if not c.closed then
    match String.index_opt c.pending '\n' with
    | None ->
      if String.length c.pending > Protocol.max_request_bytes then begin
        send t c (Protocol.error_response "request exceeds maximum size");
        close_conn t c
      end
    | Some i ->
      let line =
        let raw = String.sub c.pending 0 i in
        if raw <> "" && raw.[String.length raw - 1] = '\r' then
          String.sub raw 0 (String.length raw - 1)
        else raw
      in
      c.pending <-
        String.sub c.pending (i + 1) (String.length c.pending - i - 1);
      if String.trim line <> "" then send t c (handle_line t c.origin line);
      process_pending t c

let handle_readable t c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 65536 with
  | 0 -> close_conn t c
  | n ->
    c.pending <- c.pending ^ Bytes.sub_string buf 0 n;
    process_pending t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn t c

(* -- main loop and teardown ---------------------------------------------- *)

let write_text_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* The server-wide trace: every job's lifecycle spans on shared lanes.
   Admission-side spans (client.submit, cache.lookup, queue.wait,
   dispatch) stack on lane 0; the run and everything after it lands on
   the concurrency slot the job actually occupied, so slot contention is
   visible at a glance.  Per-round engine detail stays in the per-job
   traces — this is the fleet view, not the microscope. *)
let server_trace t =
  let admission_span name =
    List.mem name [ "client.submit"; "cache.lookup"; "queue.wait"; "dispatch" ]
  in
  let max_lane = ref 0 in
  let events =
    List.concat_map
      (fun j ->
        let lane =
          Option.value (Hashtbl.find_opt t.lanes (Scheduler.id j)) ~default:0
        in
        if lane > !max_lane then max_lane := lane;
        List.filter_map
          (fun ev ->
            match (Json.member "ph" ev, Json.member "tid" ev, ev) with
            | Some (Json.String "M"), _, _ -> None
            | _, Some (Json.Int 0), Json.Obj fields ->
              let name =
                match Json.member "name" ev with
                | Some (Json.String n) -> n
                | _ -> ""
              in
              let tid = if admission_span name then 0 else lane in
              Some
                (Json.Obj
                   (List.map
                      (fun (k, v) ->
                        if k = "tid" then (k, Json.Int tid) else (k, v))
                      fields))
            | _ -> None (* engine lanes: per-job traces only *))
          (Scheduler.trace_events t.sched j))
      (Scheduler.all t.sched)
  in
  let meta tid name =
    Json.Obj
      [
        ("ph", Json.String "M");
        ("name", Json.String "thread_name");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
  in
  meta 0 "admission"
  :: List.init !max_lane (fun i -> meta (i + 1) (Printf.sprintf "slot-%d" (i + 1)))
  @ events

let drain t =
  (* Stop sampling before teardown I/O: past this point no signal can
     interrupt the artifact writes, and the profile covers exactly the
     serving lifetime. *)
  (match t.profiler with
   | None -> ()
   | Some p ->
     t.profiler <- None;
     Profiler.stop p;
     Option.iter
       (fun dir ->
         Budget.Disk.ensure_dir dir;
         (try Profiler.write_folded p (Filename.concat dir "server.folded")
          with Sys_error _ -> ());
         try
           Json.write_file
             (Filename.concat dir "server.profile.json")
             (Profiler.summary p)
         with Sys_error _ -> ())
       t.cfg.profile_dir);
  log t "shutting down: %d connection(s), %d worker(s)" (List.length t.conns)
    (List.length t.workers);
  (* Checkpoint unfinished work first, then cancel it: a restart with the
     same state dir re-admits exactly what this process did not finish. *)
  let pending = Scheduler.queued_specs t.sched in
  (match t.cfg.state_dir with
   | Some dir ->
     Budget.Disk.ensure_dir dir;
     let path = Filename.concat dir "queue.ckpt" in
     if pending = [] then (try Sys.remove path with Sys_error _ -> ())
     else (
       let save () = Checkpoint.save ~path ~tag:queue_tag pending in
       try
         save ();
         log t "checkpointed %d unfinished job(s)" (List.length pending)
       with
       | Unix.Unix_error (Unix.ENOSPC, _, _) -> (
         (* Disk governor, checkpoint branch: the queue checkpoint
            outranks every cached result — cache entries can be
            recomputed, unfinished jobs cannot.  Evict the whole cache,
            retry once, and only then degrade to dropping the queue.
            [Checkpoint.save] already removed its temp file, so the
            previous checkpoint (if any) is intact either way. *)
         Option.iter (fun c -> ignore (Cache.evict c ~max_bytes:0)) t.cache;
         record_incident t
           (Incident.Resource_exhausted
              {
                resource = "disk";
                limit =
                  float_of_int (t.cfg.statedir_headroom_mb * 1024 * 1024);
                observed =
                  (match Budget.Disk.free_bytes dir with
                   | Some n -> float_of_int n
                   | None -> 0.0);
              });
         match save () with
         | () ->
           log t
             "checkpointed %d unfinished job(s) after evicting the cache"
             (List.length pending)
         | exception e ->
           log t "queue checkpoint failed twice: %s (dropping %d job(s))"
             (Printexc.to_string e) (List.length pending))
       | e -> log t "queue checkpoint failed: %s" (Printexc.to_string e))
   | None ->
     if pending <> [] then
       log t "dropping %d unfinished job(s) (no state dir)"
         (List.length pending));
  List.iter (fun j -> ignore (cancel t j)) (Scheduler.all t.sched);
  List.iter (reap_worker t) t.workers;
  t.workers <- [];
  (* Abandoned workers cannot be joined unless they unwind on their own;
     give them a bounded window (their cancel flags are set), then leak
     the rest — process exit reclaims them, and blocking shutdown on a
     wedged domain is exactly what abandonment was for. *)
  (let give_up = Clock.now () +. 5.0 in
   let rec wait_zombies () =
     let dead, undead = List.partition completed t.zombies in
     List.iter (reap_worker t) dead;
     t.zombies <- undead;
     if undead <> [] && Clock.now () < give_up then begin
       Unix.sleepf 0.05;
       wait_zombies ()
     end
   in
   wait_zombies ();
   if t.zombies <> [] then begin
     (* Count the leak before the final metrics/health snapshots below:
        a soak that kills and restarts the daemon reads the tally from
        state_dir/metrics.prom. *)
     let leaked = List.length t.zombies in
     Metrics.add t.m_zombies_leaked leaked;
     log t "leaking %d still-wedged worker domain(s) at exit" leaked
   end);
  (* Joins idle and reclaimable hub domains; still-wedged abandoned ones
     are leaked, exactly as before. *)
  Domain_hub.shutdown t.hub;
  (* Flush observability artifacts so a post-mortem needs no live daemon. *)
  (match t.cfg.state_dir with
   | None -> ()
   | Some dir ->
     Budget.Disk.ensure_dir dir;
     (try
        write_text_file
          (Filename.concat dir "metrics.prom")
          (Metrics.to_prometheus (metrics t))
      with Sys_error _ -> ());
     (try
        let buf = Buffer.create 4096 in
        List.iter
          (fun j ->
            List.iter
              (fun ev ->
                Buffer.add_string buf (Json.to_string ev);
                Buffer.add_char buf '\n')
              (Scheduler.events t.sched j))
          (Scheduler.all t.sched);
        write_text_file (Filename.concat dir "events.jsonl") (Buffer.contents buf)
      with Sys_error _ -> ());
     let traces = Filename.concat dir "traces" in
     Budget.Disk.ensure_dir traces;
     List.iter
       (fun j ->
         try
           Json.write_file
             (Filename.concat traces (Scheduler.id j ^ ".trace.json"))
             (Json.Obj
                [
                  ("traceEvents",
                   Json.List (Scheduler.trace_events t.sched j));
                  ("displayTimeUnit", Json.String "ms");
                ])
         with Sys_error _ -> ())
       (Scheduler.all t.sched);
     try
       Json.write_file
         (Filename.concat dir "server.trace.json")
         (Json.Obj
            [
              ("traceEvents", Json.List (server_trace t));
              ("displayTimeUnit", Json.String "ms");
            ])
     with Sys_error _ -> ());
  List.iter (fun c -> flush_outbox_closing t c) t.conns;
  List.iter (fun c -> close_conn t c) t.conns;
  (try Unix.close t.unix_listener with Unix.Unix_error _ -> ());
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.tcp_listener;
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  log t "bye"

let run t =
  (match t.cfg.profile_dir with
   | None -> ()
   | Some _ -> (
     (* CPU-time sampling: SIGPROF only fires while the daemon burns
        CPU, so an idle select loop costs nothing and never has its
        blocking syscalls interrupted. *)
     try
       t.profiler <-
         Some (Profiler.start ~hz:t.cfg.profile_hz ~mode:Profiler.Cpu ())
     with Invalid_argument msg -> log t "profiler not started: %s" msg));
  restore_queue t;
  let listeners =
    t.unix_listener
    :: (match t.tcp_listener with Some fd -> [ fd ] | None -> [])
  in
  while not (Atomic.get t.stopped) do
    reap t;
    sweep_deadlines t;
    dispatch t;
    let read_set = (t.pipe_r :: listeners) @ List.map (fun c -> c.fd) t.conns in
    let write_set =
      List.filter_map
        (fun c -> if Queue.is_empty c.outbox then None else Some c.fd)
        t.conns
    in
    match Unix.select read_set write_set [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | Some c -> flush_outbox t c
          | None -> ())
        ready_w;
      List.iter
        (fun fd ->
          if fd = t.pipe_r then drain_pipe t
          else if List.memq fd listeners then
            accept_conn t fd
              ~origin:(if fd = t.unix_listener then `Unix else `Tcp)
          else
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | Some c -> handle_readable t c
            | None -> ())
        ready_r
  done;
  drain t
