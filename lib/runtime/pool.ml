open Accals_telemetry

(* Persistent domain pool around one shared FIFO of chunks.

   A fan-out is cut into contiguous chunks ({!Chunk.ranges}) which are
   appended to the queue under the pool mutex. Workers pop chunks and
   park on [work_cond] when the queue is empty. The submitting domain
   helps while it awaits: it pops chunks of any in-flight batch until its
   own batch has drained, then parks on [done_cond]. So a [jobs]-pool
   applies [jobs] domains to each batch.

   There is no per-batch barrier: a batch is a reference-counted bag of
   chunks ([b_remaining]), and several batches can be in flight at once
   ({!fork}/{!await}).

   There is no work stealing either: a chunk holds enough work that one
   mutex hop per chunk is noise, and on 2 cores this queue ran the
   er-suite at -j2 faster than per-domain Chase–Lev deques with inboxes
   and steal sweeps did (DESIGN.md §3.1).

   Determinism: the chunk layout depends only on (jobs, count), each task
   index writes only its own slot of the caller's result array, and
   failures are collected by index — so scheduling decides only which
   domain computes an index, never what lands at it, and results are
   bit-identical for every [jobs] value. *)

type batch = {
  b_task : int -> unit;  (* exception-safe wrapper around the user task *)
  b_label : string;
  b_remaining : int Atomic.t;  (* chunks not yet fully executed *)
}

type chunk = { c_lo : int; c_len : int; c_batch : batch }

type t = {
  jobs : int;
  stats : Stats.t;
  mutex : Mutex.t;
  queue : chunk Queue.t;  (* guarded by [mutex] *)
  work_cond : Condition.t;  (* workers park here while the queue is empty *)
  done_cond : Condition.t;  (* awaiters park here until a batch drains *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

type failure = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

type ticket = {
  tk_batch : batch option;  (* [None]: ran inline at fork time *)
  tk_count : int;
  tk_errors : (exn * Printexc.raw_backtrace) option array;
}

let jobs t = t.jobs
let stats t = t.stats
let default_label = "_unlabelled"

let exec_chunk t me c =
  let b = c.c_batch in
  (* Workers cannot be stack-sampled from domain 0, so each publishes
     the phase label of the chunk it is running; the profiler's signal
     handler snapshots these lock-free. Domain 0 is the submitter (real
     stacks), so it stays unlabeled. *)
  if me > 0 then Profiler.set_label me b.b_label;
  for i = c.c_lo to c.c_lo + c.c_len - 1 do
    b.b_task i
  done;
  if me > 0 then Profiler.clear_label me;
  Stats.add_tasks t.stats c.c_len;
  if Atomic.fetch_and_add b.b_remaining (-1) = 1 then begin
    (* Last chunk of its batch: wake any awaiter. The mutex hop orders
       this broadcast against an awaiter that just re-checked
       [b_remaining] and is about to wait. *)
    Mutex.lock t.mutex;
    Condition.broadcast t.done_cond;
    Mutex.unlock t.mutex
  end

(* Worker [me]'s loop; called and returning with [t.mutex] held. *)
let rec work t me =
  match Queue.take_opt t.queue with
  | Some c ->
    Mutex.unlock t.mutex;
    exec_chunk t me c;
    Mutex.lock t.mutex;
    work t me
  | None when t.stop -> ()
  | None ->
    Stats.incr_waits t.stats;
    Stats.worker_parked t.stats;
    let slept = Clock.now () in
    Condition.wait t.work_cond t.mutex;
    Stats.worker_unparked t.stats (Clock.now () -. slept);
    work t me

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be at least 1";
  let t =
    {
      jobs;
      stats = Stats.create ~jobs;
      mutex = Mutex.create ();
      queue = Queue.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      stop = false;
      domains = [];
    }
  in
  (* Workers report to whatever telemetry handle is effective on the
     creating domain — in the daemon that is the per-job handle scoped
     by [Telemetry.with_handle], so a job's pool spans land on that
     job's tracer instead of a neighbours'. *)
  let ambient = Telemetry.get () in
  if jobs > 1 then
    t.domains <-
      List.init (jobs - 1) (fun i ->
          Domain.spawn (fun () ->
              (* Worker i occupies trace lane i+1; the submitting domain
                 keeps tid 0 ("main"). *)
              Tracer.set_tid (i + 1);
              Telemetry.set_local ambient;
              Mutex.lock t.mutex;
              work t (i + 1);
              Mutex.unlock t.mutex));
  t

(* A ticket's error slots, and the exception-safe task that fills them. *)
let guard count task =
  let errors = Array.make count None in
  let safe i =
    try task i with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  (errors, safe)

let run_inline t ~count task =
  (* No batch machinery, no synchronization; the whole index space still
     drains after a failure, mirroring the parallel path. *)
  let errors, safe = guard count task in
  for i = 0 to count - 1 do
    safe i
  done;
  Stats.add_tasks t.stats count;
  { tk_batch = None; tk_count = count; tk_errors = errors }

let fork ?(label = default_label) t ~count task =
  if count < 0 then invalid_arg "Pool.fork: negative count";
  (* [count = 1] is only inlined on the synchronous path ([try_run]): a
     forked singleton must actually run on a worker, or fork/join overlap
     would silently degrade to sequential execution. *)
  if count = 0 || t.jobs = 1 then run_inline t ~count task
  else begin
    let errors, safe = guard count task in
    let ranges = Chunk.ranges ~jobs:t.jobs count in
    let b =
      {
        b_task = safe;
        b_label = label;
        b_remaining = Atomic.make (Array.length ranges);
      }
    in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.fork: pool is shut down"
    end;
    Array.iter
      (fun (lo, len) -> Queue.add { c_lo = lo; c_len = len; c_batch = b } t.queue)
      ranges;
    Stats.incr_batches t.stats;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.mutex;
    { tk_batch = Some b; tk_count = count; tk_errors = errors }
  end

let collect_failures tk =
  let failures = ref [] in
  for i = tk.tk_count - 1 downto 0 do
    match tk.tk_errors.(i) with
    | Some (exn, backtrace) ->
      failures := { index = i; exn; backtrace } :: !failures
    | None -> ()
  done;
  !failures

let await t tk =
  (match tk.tk_batch with
  | None -> ()
  | Some b ->
    (* Help drain: run chunks of any in-flight batch, not just this one —
       every chunk is self-describing. Only this domain submits, so once
       the queue is empty nothing new arrives before [b] drains. *)
    Mutex.lock t.mutex;
    while Atomic.get b.b_remaining > 0 do
      match Queue.take_opt t.queue with
      | Some c ->
        Mutex.unlock t.mutex;
        Stats.incr_steals t.stats;
        exec_chunk t 0 c;
        Mutex.lock t.mutex
      | None -> Condition.wait t.done_cond t.mutex
    done;
    Mutex.unlock t.mutex);
  (* The final [b_remaining] load (SC atomic) orders every worker's
     error/result writes before the reads below. *)
  collect_failures tk

let try_run ?(label = default_label) t ~count task =
  if count < 0 then invalid_arg "Pool.try_run: negative count";
  if count <= 1 || t.jobs = 1 then collect_failures (run_inline t ~count task)
  else
    let tk = fork ~label t ~count task in
    Telemetry.with_span ~cat:"pool"
      ~args:[ ("count", Json.Int count); ("label", Json.String label) ]
      "pool.batch"
      (fun () -> await t tk)

let run ?label t ~count task =
  match try_run ?label t ~count task with
  | [] -> ()
  | f :: _ -> Printexc.raise_with_backtrace f.exn f.backtrace

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
