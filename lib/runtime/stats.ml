open Accals_telemetry

let phase_family = "accals_phase_seconds_total"

(* Per-label exponentially weighted moving average of per-task cost,
   feeding the pool's chunk-size planner and its sequential-inline
   cutoff. Updated by worker domains under a mutex (one update per
   chunk, so contention is negligible next to the work itself). *)
type cost_model = {
  cm_mutex : Mutex.t;
  cm_ewma : (string, float ref) Hashtbl.t;
}

type t = {
  jobs : int;
  metrics : Metrics.t;
  tasks : Metrics.counter;
  batches : Metrics.counter;
  waits : Metrics.counter;
  steals : Metrics.counter;
  idle_seconds : Metrics.counter;
  idle_workers : Metrics.gauge;
  idle_now : int Atomic.t;
  costs : cost_model;
}

let create ~jobs =
  let metrics = Metrics.create () in
  {
    jobs;
    metrics;
    tasks =
      Metrics.counter metrics "accals_pool_tasks_total"
        ~help:"Tasks executed by the pool (including sequential bypass)";
    batches =
      Metrics.counter metrics "accals_pool_batches_total"
        ~help:"Pool.run invocations that fanned out to workers";
    waits =
      Metrics.counter metrics "accals_pool_waits_total"
        ~help:"Times a worker domain slept waiting for work";
    steals =
      Metrics.counter metrics "accals_pool_steal_total"
        ~help:"Chunks taken from another domain's deque";
    idle_seconds =
      Metrics.counter metrics "accals_pool_idle_seconds_total"
        ~help:"Seconds worker domains spent parked waiting for work";
    idle_workers =
      Metrics.gauge metrics "accals_pool_workers_idle"
        ~help:"Worker domains currently parked waiting for work";
    idle_now = Atomic.make 0;
    costs = { cm_mutex = Mutex.create (); cm_ewma = Hashtbl.create 16 };
  }

let jobs t = t.jobs
let metrics t = t.metrics

let incr_tasks t = Metrics.incr t.tasks
let add_tasks t n = Metrics.add t.tasks n
let incr_batches t = Metrics.incr t.batches
let incr_waits t = Metrics.incr t.waits
let incr_steals t = Metrics.incr t.steals

let worker_parked t =
  Metrics.set t.idle_workers
    (float_of_int (1 + Atomic.fetch_and_add t.idle_now 1))

let worker_unparked t seconds =
  Metrics.set t.idle_workers
    (float_of_int (Atomic.fetch_and_add t.idle_now (-1) - 1));
  if seconds > 0.0 then Metrics.addf t.idle_seconds seconds

let cost_buckets =
  [| 1e-7; 3e-7; 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 1e-2; 1e-1 |]

let cost_histogram t label =
  Metrics.histogram t.metrics "accals_pool_task_cost_seconds"
    ~help:"Measured per-task wall seconds, by fan-out label"
    ~labels:[ ("phase", label) ]
    ~buckets:cost_buckets

let ewma_alpha = 0.2

let note_task_cost t ~label ~tasks ~seconds =
  if tasks > 0 then begin
    let per_task = seconds /. float_of_int tasks in
    Metrics.observe (cost_histogram t label) per_task;
    let cm = t.costs in
    Mutex.lock cm.cm_mutex;
    (match Hashtbl.find_opt cm.cm_ewma label with
    | Some r -> r := ((1.0 -. ewma_alpha) *. !r) +. (ewma_alpha *. per_task)
    | None -> Hashtbl.add cm.cm_ewma label (ref per_task));
    Mutex.unlock cm.cm_mutex
  end

let task_cost t label =
  let cm = t.costs in
  Mutex.lock cm.cm_mutex;
  let c = Option.map ( ! ) (Hashtbl.find_opt cm.cm_ewma label) in
  Mutex.unlock cm.cm_mutex;
  c

let phase_counter t name =
  Metrics.counter t.metrics phase_family
    ~help:"Wall-clock seconds accumulated per engine phase"
    ~labels:[ ("phase", name) ]

let add_phase t name seconds = Metrics.addf (phase_counter t name) seconds

let time_phase ?(end_args = fun () -> []) t name f =
  let span = Telemetry.begin_span ~cat:"phase" name in
  let started = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      add_phase t name (Clock.now () -. started);
      Telemetry.end_span ~args:(end_args ()) span)
    f

type snapshot = {
  jobs : int;
  tasks : int;
  batches : int;
  waits : int;
  steals : int;
  idle_seconds : float;
  phases : (string * float) list;
  metrics : Metrics.snapshot;
}

let snapshot (t : t) =
  let metrics = Metrics.snapshot t.metrics in
  let phases =
    List.filter_map
      (fun s ->
        if s.Metrics.name = phase_family then
          match (List.assoc_opt "phase" s.Metrics.labels, s.Metrics.value) with
          | Some phase, Metrics.Counter seconds -> Some (phase, seconds)
          | _ -> None
        else None)
      metrics
  in
  {
    jobs = t.jobs;
    tasks = int_of_float (Metrics.counter_value t.tasks);
    batches = int_of_float (Metrics.counter_value t.batches);
    waits = int_of_float (Metrics.counter_value t.waits);
    steals = int_of_float (Metrics.counter_value t.steals);
    idle_seconds = Metrics.counter_value t.idle_seconds;
    phases;
    metrics;
  }

let empty =
  {
    jobs = 1;
    tasks = 0;
    batches = 0;
    waits = 0;
    steals = 0;
    idle_seconds = 0.0;
    phases = [];
    metrics = [];
  }

let phase_seconds snap name =
  match List.assoc_opt name snap.phases with Some s -> s | None -> 0.0
