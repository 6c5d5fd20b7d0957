type t = {
  tracer : Tracer.t option;
  metrics : Metrics.t;
  progress : Progress.t option;
  events : out_channel option;
  events_mutex : Mutex.t;
  on_event : (Json.t -> unit) option;
  on_progress : (round:int -> max_rounds:int -> error:float -> area:float -> unit) option;
}

let make ?tracer ?progress ?events ?on_event ?on_progress () =
  {
    tracer;
    metrics = Metrics.create ();
    progress;
    events;
    events_mutex = Mutex.create ();
    on_event;
    on_progress;
  }

let disabled = make ()
let current = Atomic.make disabled

(* A domain-local override shadows the global handle: the daemon runs
   several jobs concurrently in separate domains, and each needs its own
   tracer/event sink without the jobs seeing each other's. The override
   is inherited explicitly (Pool.create captures the creating domain's
   handle for its workers); it is not ambient across Domain.spawn. *)
let local : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install t = Atomic.set current t
let reset () = Atomic.set current disabled

let get () =
  match Domain.DLS.get local with Some t -> t | None -> Atomic.get current

let set_local t = Domain.DLS.set local (Some t)

let with_handle t f =
  let prev = Domain.DLS.get local in
  Domain.DLS.set local (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set local prev) f

(* ------------------------------------------------------------------ *)
(* Tracing *)

let tracing () = (get ()).tracer <> None

let with_span ?cat ?args name f =
  match (get ()).tracer with
  | None -> f ()
  | Some tr -> Tracer.with_span tr ?cat ?args name f

type span = Tracer.span option

let begin_span ?cat ?args name =
  match (get ()).tracer with
  | None -> None
  | Some tr -> Some (Tracer.begin_span tr ?cat ?args name)

let end_span ?args = function None -> () | Some s -> Tracer.end_span ?args s

let instant ?cat ?args name =
  match (get ()).tracer with
  | None -> ()
  | Some tr -> Tracer.instant tr ?cat ?args name

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics () = (get ()).metrics

let count ?labels ?help name n =
  Metrics.add (Metrics.counter (metrics ()) ?help ?labels name) n

(* ------------------------------------------------------------------ *)
(* Events and progress *)

let event mk =
  let t = get () in
  if t.events <> None || t.on_event <> None then begin
    let v = mk () in
    (match t.events with
     | None -> ()
     | Some oc ->
       let line = Json.to_string v in
       Mutex.lock t.events_mutex;
       output_string oc line;
       output_char oc '\n';
       flush oc;
       Mutex.unlock t.events_mutex);
    match t.on_event with None -> () | Some sink -> sink v
  end

let progress_round ~round ~max_rounds ~error ~threshold ~area =
  let t = get () in
  (match t.progress with
   | None -> ()
   | Some p -> Progress.round p ~round ~max_rounds ~error ~threshold ~area);
  match t.on_progress with
  | None -> ()
  | Some sink -> sink ~round ~max_rounds ~error ~area

let progress_finish () =
  match (get ()).progress with None -> () | Some p -> Progress.finish p
