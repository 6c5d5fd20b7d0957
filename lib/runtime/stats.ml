open Accals_telemetry

let phase_family = "accals_phase_seconds_total"

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
        ~help:"Chunks the awaiting submitter ran";
    idle_seconds =
      Metrics.counter metrics "accals_pool_idle_seconds_total"
        ~help:"Seconds worker domains spent parked waiting for work";
    idle_workers =
      Metrics.gauge metrics "accals_pool_workers_idle"
        ~help:"Worker domains currently parked waiting for work";
    idle_now = Atomic.make 0;
  }

let jobs t = t.jobs
let metrics t = t.metrics

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
