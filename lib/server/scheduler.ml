module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Trace_context = Accals_telemetry.Trace_context
module Metric = Accals_metrics.Metric
module Network = Accals_network.Network

type state = Queued | Running | Done | Failed | Cancelled

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

type failure = Deadline_exceeded | Resource_exhausted | Error of string

let failure_to_string = function
  | Deadline_exceeded -> "deadline_exceeded"
  | Resource_exhausted -> "resource_exhausted"
  | Error msg -> msg

type outcome = [ `Done of string * bool | `Failed of failure | `Cancelled ]

type job = {
  id : string;
  seq : int;
  spec : Protocol.job_spec;
  trace_id : string;  (* from the spec, or minted at admission *)
  circuit : string;
  digest : string;
  key : string;
  submitted_wall : float;  (* Unix epoch, for display *)
  submitted_mono : float;  (* Clock.now, for durations *)
  lookup_s : float;  (* cache-lookup cost paid at admission *)
  deadline_mono : float option;  (* absolute Clock.now deadline *)
  cancel_flag : bool Atomic.t;
  mutable state : state;
  mutable started_mono : float option;  (* picked by the dispatcher *)
  mutable run_begin_mono : float option;  (* engine actually entered *)
  mutable finished_mono : float option;
  mutable delivered_mono : float option;  (* first successful result fetch *)
  mutable cached : bool;
  mutable degraded : bool;
  mutable result : string option;
      (* the result's encoded JSON members, [Cache.members] *)
  mutable failure : failure option;
  mutable net : Network.t option;
      (* the parsed circuit, until the job leaves the queue *)
  mutable events : Json.t list;  (* newest first *)
  mutable engine_trace : Json.t list;
      (* The job's engine-side Chrome-trace events, already rebased to
         absolute monotonic microseconds and relocated off the lifecycle
         lane (see [attach_trace]); merged into [trace_events]. *)
}

(* Every admitted job stays in [jobs]; the queued and running ones are also
   in [active], and each key's jobs in [by_key], so the per-tick and
   per-submit walks do not grow with the daemon's history.  [sources] maps
   each admitted job's source to its [(digest, circuit)]; its keys are the
   specs' own values (a name, or the full BLIF text), compared exactly. *)
type t = {
  mutex : Mutex.t;
  tbl : (string, job) Hashtbl.t;
  mutable jobs : job list;  (* newest first *)
  mutable active : job list;  (* the Queued and Running jobs, newest first *)
  by_key : (string, job list) Hashtbl.t;  (* newest first *)
  sources : (Protocol.source, string * string) Hashtbl.t;
  mutable next_seq : int;
  rng : Random.State.t;
}

(* Job ids are capabilities of a sort — [result]/[cancel] take nothing
   but the id — so they must not be guessable from watching one's own
   submissions.  Seed from the system entropy pool; the fallback only
   matters on systems without /dev/urandom. *)
let seed_rng () =
  match
    let ic = open_in_bin "/dev/urandom" in
    let s = really_input_string ic 16 in
    close_in ic;
    s
  with
  | s -> Random.State.make (Array.init 16 (fun i -> Char.code s.[i]))
  | exception Sys_error _ | exception End_of_file ->
    Random.State.make
      [| int_of_float (Unix.gettimeofday () *. 1e6); Unix.getpid () |]

let create () =
  {
    mutex = Mutex.create ();
    tbl = Hashtbl.create 64;
    jobs = [];
    active = [];
    by_key = Hashtbl.create 64;
    (* Randomized, so client-chosen BLIF texts cannot be crafted to share
       a bucket. *)
    sources = Hashtbl.create ~random:true 64;
    next_seq = 1;
    rng = seed_rng ();
  }

let locked t f = Mutex.protect t.mutex f

let id j = j.id
let spec j = j.spec
let key j = j.key
let digest j = j.digest
let trace_id j = j.trace_id
let cancel_requested j = Atomic.get j.cancel_flag

let push_event j name fields =
  let ev =
    Json.Obj
      (("ts", Json.Float (Clock.now ()))
      :: ("job", Json.String j.id)
      :: ("event", Json.String name)
      :: fields)
  in
  j.events <- ev :: j.events

let record_event t j name fields = locked t (fun () -> push_event j name fields)

let submit t ~spec ~circuit ~digest ~key ?net ?cached ?(lookup_s = 0.0) () =
  locked t (fun () ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      (* 64 random bits after the readable sequence number. *)
      let nonce =
        Int64.logor
          (Int64.shift_left (Random.State.int64 t.rng Int64.max_int) 1)
          (Int64.of_int (Random.State.int t.rng 2))
      in
      let now_mono = Clock.now () in
      let j =
        {
          id = Printf.sprintf "j-%06d-%016Lx" seq nonce;
          seq;
          spec;
          trace_id =
            (match spec.Protocol.trace_id with
             | Some id -> id
             | None -> Trace_context.mint ());
          circuit;
          digest;
          key;
          submitted_wall = Unix.gettimeofday ();
          submitted_mono = now_mono;
          lookup_s;
          deadline_mono =
            Option.map (fun d -> now_mono +. d) spec.Protocol.deadline;
          cancel_flag = Atomic.make false;
          state = (match cached with Some _ -> Done | None -> Queued);
          started_mono = None;
          run_begin_mono = None;
          finished_mono = None;
          delivered_mono = None;
          cached = Option.is_some cached;
          degraded = false;
          result = cached;
          failure = None;
          net;
          events = [];
          engine_trace = [];
        }
      in
      (match cached with
       | Some _ ->
         j.started_mono <- Some j.submitted_mono;
         j.finished_mono <- Some j.submitted_mono
       | None -> ());
      Hashtbl.replace t.tbl j.id j;
      t.jobs <- j :: t.jobs;
      if j.state = Queued then t.active <- j :: t.active;
      Hashtbl.replace t.by_key key
        (j :: Option.value (Hashtbl.find_opt t.by_key key) ~default:[]);
      if not (Hashtbl.mem t.sources spec.Protocol.source) then
        Hashtbl.add t.sources spec.Protocol.source (digest, circuit);
      push_event j "submitted"
        [
          ("circuit", Json.String circuit);
          ("digest", Json.String digest);
          ("tenant", Json.String spec.Protocol.tenant);
          ("priority", Json.Int spec.Protocol.priority);
          ("cached", Json.Bool j.cached);
          ("trace_id", Json.String j.trace_id);
        ];
      j)

let resolve t source = locked t (fun () -> Hashtbl.find_opt t.sources source)
let find t id = locked t (fun () -> Hashtbl.find_opt t.tbl id)
let all t = locked t (fun () -> List.rev t.jobs)
let state t j = locked t (fun () -> j.state)

let active_by_key t k ~budget =
  locked t (fun () ->
      (* The fold runs newest-to-oldest and overwrites, so the oldest
         match wins — coalescing is stable across lookups.  In-flight
         jobs only coalesce when the budgets agree (a budget can degrade
         a result); finished ones only count when they converged. *)
      List.fold_left
        (fun acc j ->
          match j.state with
          | (Queued | Running) when j.spec.Protocol.budget = budget -> Some j
          | Done when j.result <> None && not j.degraded -> Some j
          | _ -> acc)
        None
        (Option.value (Hashtbl.find_opt t.by_key k) ~default:[]))

(* Scheduling policy: strict priority, then fewest running jobs for the
   tenant (fair share), then submission order. *)
let policy_order running_of_tenant a b =
  let c = compare b.spec.Protocol.priority a.spec.Protocol.priority in
  if c <> 0 then c
  else
    let c =
      compare
        (running_of_tenant a.spec.Protocol.tenant)
        (running_of_tenant b.spec.Protocol.tenant)
    in
    if c <> 0 then c else compare a.seq b.seq

let running_by_tenant t =
  (* Call with the lock held. *)
  let running = Hashtbl.create 8 in
  List.iter
    (fun j ->
      if j.state = Running then
        let tenant = j.spec.Protocol.tenant in
        Hashtbl.replace running tenant
          (1 + Option.value (Hashtbl.find_opt running tenant) ~default:0))
    t.active;
  fun tenant -> Option.value (Hashtbl.find_opt running tenant) ~default:0

let queued_in_order t =
  (* Call with the lock held. *)
  let running_of_tenant = running_by_tenant t in
  List.filter (fun j -> j.state = Queued) t.active
  |> List.sort (policy_order running_of_tenant)

let pick ?tenant_max_running t =
  locked t (fun () ->
      let running_of_tenant = running_by_tenant t in
      let admissible j =
        (* The per-tenant running quota is enforced at pick time: an
           over-quota tenant's queued jobs wait (they are not shed — the
           queue quota already bounded them at admission), and the next
           tenant in policy order runs instead. *)
        match tenant_max_running with
        | Some cap when cap > 0 ->
          running_of_tenant j.spec.Protocol.tenant < cap
        | _ -> true
      in
      match List.filter admissible (queued_in_order t) with
      | [] -> None
      | j :: _ ->
        j.state <- Running;
        j.started_mono <- Some (Clock.now ());
        push_event j "started" [];
        Some j)

let terminal j =
  match j.state with Done | Failed | Cancelled -> true | Queued | Running -> false

let note_run_begin t j =
  locked t (fun () ->
      if j.run_begin_mono = None && not (terminal j) then begin
        j.run_begin_mono <- Some (Clock.now ());
        push_event j "run_begin" []
      end)

let note_delivered t j =
  locked t (fun () ->
      if j.delivered_mono = None && terminal j then begin
        j.delivered_mono <- Some (Clock.now ());
        push_event j "delivered" []
      end)

let attach_trace t j evs = locked t (fun () -> j.engine_trace <- evs)

let take_circuit t j =
  locked t (fun () ->
      let net = j.net in
      j.net <- None;
      net)

let request_cancel t j =
  locked t (fun () ->
      if j.state = Running then begin
        Atomic.set j.cancel_flag true;
        push_event j "cancel_requested" []
      end)

(* The one terminal transition, a no-op once a job is terminal: the
   deadline watchdog may settle an abandoned job while its worker domain
   is still unwinding, and whatever that worker reports afterwards must
   not resurrect or overwrite the verdict. *)
let settle t j (outcome : outcome) =
  locked t (fun () ->
      match j.state with
      | Done | Failed | Cancelled -> None
      | (Queued | Running) as phase ->
        let while_ = [ ("while", Json.String (state_to_string phase)) ] in
        (* A worker still running the job (a deadline expiry) unwinds at
           its next round boundary. *)
        Atomic.set j.cancel_flag true;
        j.net <- None;
        j.finished_mono <- Some (Clock.now ());
        t.active <- List.filter (fun x -> x != j) t.active;
        (match outcome with
         | `Done (members, degraded) ->
           j.state <- Done;
           j.degraded <- degraded;
           j.result <- Some members;
           push_event j "done" [ ("degraded", Json.Bool degraded) ]
         | `Failed f ->
           j.state <- Failed;
           j.failure <- Some f;
           if f = Deadline_exceeded then push_event j "deadline_exceeded" while_
           else
             push_event j "failed"
               [ ("error", Json.String (failure_to_string f)) ]
         | `Cancelled ->
           j.state <- Cancelled;
           push_event j "cancelled" while_);
        Some phase)

let deadline_mono j = j.deadline_mono

let deadline_expired j ~now =
  match j.deadline_mono with None -> false | Some d -> now >= d

let expired t ~now =
  locked t (fun () -> List.filter (deadline_expired ~now) (List.rev t.active))

(* Admission-control inputs: how much is queued/running overall and per
   tenant.  Reading and the subsequent submit both happen on the
   daemon's single select-loop thread, which also makes every pick and
   terminal transition, so check-then-admit does not race. *)

let totals t =
  locked t (fun () ->
      List.fold_left
        (fun (q, r) j ->
          match j.state with
          | Queued -> (q + 1, r)
          | Running -> (q, r + 1)
          | _ -> (q, r))
        (0, 0) t.active)

let tenant_load t tenant =
  locked t (fun () ->
      List.fold_left
        (fun (q, r) j ->
          if j.spec.Protocol.tenant <> tenant then (q, r)
          else
            match j.state with
            | Queued -> (q + 1, r)
            | Running -> (q, r + 1)
            | _ -> (q, r))
        (0, 0) t.active)

type view = {
  v_id : string;
  v_state : state;
  v_circuit : string;
  v_metric : string;
  v_bound : float;
  v_tenant : string;
  v_priority : int;
  v_cached : bool;
  v_degraded : bool;
  v_queue_position : int option;
  v_submitted_at : float;
  v_wait_s : float option;
  v_run_s : float option;
  v_failure : string option;
}

let view t j =
  locked t (fun () ->
      let position =
        if j.state = Queued then
          let queued = queued_in_order t in
          let rec index i = function
            | [] -> None
            | x :: _ when x.id = j.id -> Some i
            | _ :: rest -> index (i + 1) rest
          in
          index 0 queued
        else None
      in
      {
        v_id = j.id;
        v_state = j.state;
        v_circuit = j.circuit;
        v_metric = Metric.kind_to_string j.spec.Protocol.metric;
        v_bound = j.spec.Protocol.bound;
        v_tenant = j.spec.Protocol.tenant;
        v_priority = j.spec.Protocol.priority;
        v_cached = j.cached;
        v_degraded = j.degraded;
        v_queue_position = position;
        v_submitted_at = j.submitted_wall;
        v_wait_s =
          Option.map (fun s -> s -. j.submitted_mono) j.started_mono;
        v_run_s =
          (match (j.started_mono, j.finished_mono) with
           | Some s, Some f -> Some (f -. s)
           | Some s, None -> Some (Clock.now () -. s)
           | _ -> None);
        v_failure = Option.map failure_to_string j.failure;
      })

let failure t j = locked t (fun () -> j.failure)
let result t j = locked t (fun () -> j.result)
let events t j = locked t (fun () -> List.rev j.events)

(* The per-job merged trace: lifecycle spans synthesized from the job's
   timestamps on lane 0 ("lifecycle"), plus the engine's own events
   (attached by the server, already rebased/relocated) on lanes 1..n.
   Everything shares pid 1 and carries the job's trace_id in args, so
   one file tells the job's whole story: client submit, cache lookup,
   queue wait, dispatch, engine rounds/phases, delivery. *)
let trace_events t j =
  locked t (fun () ->
      let us x = 1e6 *. x in
      let args extra =
        ( "args",
          Json.Obj
            (("job", Json.String j.id)
            :: ("trace_id", Json.String j.trace_id)
            :: extra) )
      in
      let span ?(extra = []) name ts_s dur_s =
        Json.Obj
          [
            ("name", Json.String name);
            ("cat", Json.String "job");
            ("ph", Json.String "X");
            ("ts", Json.Float (us ts_s));
            ("dur", Json.Float (us (Float.max 0.0 dur_s)));
            ("pid", Json.Int 1);
            ("tid", Json.Int 0);
            args extra;
          ]
      in
      let instant ?(extra = []) name ts_s =
        Json.Obj
          [
            ("name", Json.String name);
            ("cat", Json.String "job");
            ("ph", Json.String "i");
            ("ts", Json.Float (us ts_s));
            ("s", Json.String "t");
            ("pid", Json.Int 1);
            ("tid", Json.Int 0);
            args extra;
          ]
      in
      let now = Clock.now () in
      (* The client's monotonic clock only shares an epoch with ours on
         the same machine; an implausible gap (remote client, clock
         mixup) drops the span rather than drawing a nonsense bar. *)
      let client_submit =
        match j.spec.Protocol.client_ts with
        | Some c when c <= j.submitted_mono && j.submitted_mono -. c < 300.0
          ->
          [ span "client.submit" c (j.submitted_mono -. c) ]
        | _ -> []
      in
      let cache_lookup =
        if j.lookup_s > 0.0 then
          [
            span "cache.lookup" j.submitted_mono j.lookup_s
              ~extra:[ ("hit", Json.Bool j.cached) ];
          ]
        else []
      in
      let queued_end = Option.value j.started_mono ~default:now in
      let queue_wait =
        [ span "queue.wait" j.submitted_mono (queued_end -. j.submitted_mono) ]
      in
      let dispatch =
        match j.started_mono with
        | None -> []
        | Some s ->
          let e = Option.value j.run_begin_mono ~default:s in
          [ span "dispatch" s (e -. s) ]
      in
      let run =
        match (j.cached, j.started_mono) with
        | true, _ | _, None -> []
        | false, Some s ->
          let b = Option.value j.run_begin_mono ~default:s in
          let e = Option.value j.finished_mono ~default:now in
          [ span "run" b (e -. b) ]
      in
      let terminal_mark =
        match j.finished_mono with
        | None -> []
        | Some f ->
          [
            instant (state_to_string j.state) f
              ~extra:
                (match j.failure with
                 | Some f -> [ ("error", Json.String (failure_to_string f)) ]
                 | None -> []);
          ]
      in
      let delivery =
        match (j.finished_mono, j.delivered_mono) with
        | Some f, Some d -> [ span "result.delivery" f (d -. f) ]
        | _ -> []
      in
      let meta =
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.String "lifecycle") ]);
          ]
      in
      (meta :: client_submit)
      @ cache_lookup @ queue_wait @ dispatch @ run @ terminal_mark @ delivery
      @ j.engine_trace)

let queued_specs t =
  locked t (fun () ->
      List.rev_map (fun j -> j.spec) t.active)
