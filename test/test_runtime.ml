(* lib/runtime: pool lifecycle, deterministic fan-out, and the end-to-end
   guarantee that jobs > 1 reproduces the sequential reference bit for bit. *)

open Accals_network
module Pool = Accals_runtime.Pool
module Fan_out = Accals_runtime.Fan_out
module Stats = Accals_runtime.Stats
module Engine = Accals.Engine
module Config = Accals.Config
module Metric = Accals_metrics.Metric

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Pool lifecycle --- *)

let test_pool_lifecycle () =
  let pool = Pool.create ~jobs:4 in
  check_int "jobs" 4 (Pool.jobs pool);
  (* The same pool services many batches; workers are spawned once. *)
  for round = 1 to 5 do
    let n = 17 * round in
    let hits = Array.make n 0 in
    Pool.run pool ~count:n (fun i -> hits.(i) <- hits.(i) + 1);
    check "each task ran exactly once" true (Array.for_all (( = ) 1) hits)
  done;
  let snap = Stats.snapshot (Pool.stats pool) in
  check_int "tasks counted" (17 * (1 + 2 + 3 + 4 + 5)) snap.Stats.tasks;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_sequential_bypass () =
  (* jobs = 1 never spawns a domain and runs inline, in order. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let order = ref [] in
      Pool.run pool ~count:5 (fun i -> order := i :: !order);
      check "inline order" true (!order = [ 4; 3; 2; 1; 0 ]))

let test_pool_empty_batch () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Pool.run pool ~count:0 (fun _ -> assert false))

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let raised =
        try
          Pool.run pool ~count:32 (fun i -> if i = 13 then raise (Boom i));
          false
        with Boom 13 -> true
      in
      check "task exception re-raised in caller" true raised;
      (* The pool survives a failed batch. *)
      let sum = Atomic.make 0 in
      Pool.run pool ~count:10 (fun i -> ignore (Atomic.fetch_and_add sum i));
      check_int "pool usable after exception" 45 (Atomic.get sum))

(* --- Fan_out: chunking edge cases and determinism --- *)

let sizes = [ 0; 1; 2; 3; 7; 16; 33; 100 ]

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let xs = List.init n (fun i -> i) in
              let expect = List.map (fun i -> (i * i) + 1) xs in
              let got = Fan_out.map_list pool ~f:(fun i -> (i * i) + 1) xs in
              check "map_list" true (got = expect);
              let arr = Array.of_list xs in
              let got_a = Fan_out.map_array pool ~f:(fun i -> i * 3) arr in
              check "map_array" true
                (got_a = Array.map (fun i -> i * 3) arr))
            sizes))
    [ 1; 2; 5 ]

let test_map_with_state () =
  (* One scratch state per chunk; results land by element index even when
     there are fewer items than workers. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let xs = List.init n (fun i -> i) in
              let got =
                Fan_out.map_list_with pool
                  ~state:(fun () -> Buffer.create 8)
                  ~f:(fun buf i ->
                    Buffer.clear buf;
                    Buffer.add_string buf (string_of_int (i + 1));
                    int_of_string (Buffer.contents buf))
                  xs
              in
              check "map_list_with" true (got = List.map (( + ) 1) xs))
            sizes))
    [ 1; 2; 5 ]

let test_map_reduce_order () =
  (* String concatenation is non-commutative: any merge out of submission
     order would scramble the result. *)
  let expect n =
    String.concat "" (List.init n (fun i -> Printf.sprintf "[%d]" i))
  in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let got =
                Fan_out.map_reduce pool ~n
                  ~map:(fun i -> Printf.sprintf "[%d]" i)
                  ~merge:( ^ ) ~init:""
              in
              check "merge in submission order" true (got = expect n))
            sizes))
    [ 1; 2; 5 ]

let test_concat_map () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let arr = Array.init 23 (fun i -> i) in
      let f i = List.init (i mod 3) (fun j -> (i, j)) in
      check "concat_map_array" true
        (Fan_out.concat_map_array pool ~f arr
        = List.concat_map f (Array.to_list arr)))

(* --- End-to-end determinism: jobs=N reproduces jobs=1 exactly --- *)

let small_config ~jobs net =
  Config.for_network
    ~base:{ Config.default with samples = 512; seed = 1; jobs }
    net

let test_engine_jobs_deterministic () =
  List.iter
    (fun (name, metric, bound) ->
      let net = Accals_circuits.Bench_suite.load name in
      let seq =
        Engine.run ~config:(small_config ~jobs:1 net) net ~metric
          ~error_bound:bound
      in
      let par =
        Engine.run ~config:(small_config ~jobs:4 net) net ~metric
          ~error_bound:bound
      in
      Alcotest.(check (float 0.0))
        (name ^ " error") seq.Engine.error par.Engine.error;
      Alcotest.(check (float 0.0))
        (name ^ " area ratio") seq.Engine.area_ratio par.Engine.area_ratio;
      Alcotest.(check (float 0.0))
        (name ^ " delay ratio") seq.Engine.delay_ratio par.Engine.delay_ratio;
      check_int (name ^ " evaluations") seq.Engine.exact_evaluations
        par.Engine.exact_evaluations;
      check (name ^ " identical round trace") true
        (seq.Engine.rounds = par.Engine.rounds);
      check (name ^ " parallel stats recorded") true
        (par.Engine.stats.Stats.jobs = 4 && par.Engine.stats.Stats.tasks > 0);
      check (name ^ " phases timed") true
        (List.mem_assoc "estimate" par.Engine.stats.Stats.phases))
    [
      ("mtp8", Metric.Error_rate, 0.03);
      ("rca32", Metric.Error_rate, 0.01);
      ("mtp8", Metric.Nmed, 0.0019531);
    ]

(* The estimator looks each shortlisted target's cone up once, on the
   submitting domain, so its cache counters are the same at any -j. *)
let test_cone_cache_counters_jobs_independent () =
  let net = Accals_circuits.Bench_suite.load "frg2" in
  let counters jobs =
    let report =
      Engine.run ~config:(small_config ~jobs net) net ~metric:Metric.Error_rate
        ~error_bound:0.03
    in
    let counter name =
      match Accals_telemetry.Metrics.find report.Engine.metrics name with
      | Some (Accals_telemetry.Metrics.Counter v) -> v
      | _ -> Alcotest.failf "counter %s missing" name
    in
    ( counter "accals_estimator_cone_cache_hits_total",
      counter "accals_estimator_cone_cache_misses_total" )
  in
  let hits1, misses1 = counters 1 and hits3, misses3 = counters 3 in
  check "cone lookups happened" true (hits1 +. misses1 > 0.0);
  Alcotest.(check (float 0.0)) "cone cache hits" hits1 hits3;
  Alcotest.(check (float 0.0)) "cone cache misses" misses1 misses3

let test_estimator_score_deterministic () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let patterns = Sim.for_network ~seed:1 ~count:512 ~exhaustive_limit:10 net in
  let ctx = Accals_lac.Round_ctx.create net patterns in
  let golden = Accals_lac.Round_ctx.output_sigs ctx in
  let est =
    Accals_esterr.Estimator.create ctx ~golden ~metric:Metric.Error_rate
  in
  let cands =
    Accals_lac.Candidate_gen.generate ctx Accals_lac.Candidate_gen.default_config
  in
  let seq = Accals_esterr.Estimator.score est ~shortlist:40 cands in
  let par =
    Pool.with_pool ~jobs:3 (fun pool ->
        Accals_esterr.Estimator.score ~pool est ~shortlist:40 cands)
  in
  check "scored LACs identical" true (compare seq par = 0);
  let par_gen =
    Pool.with_pool ~jobs:3 (fun pool ->
        Accals_lac.Candidate_gen.generate ~pool ctx
          Accals_lac.Candidate_gen.default_config)
  in
  check "generated candidates identical" true (compare cands par_gen = 0);
  (* frg2 and sqrt exercise SOP cuts, sibling windows and per-chunk
     scratch reuse across many targets. *)
  List.iter
    (fun name ->
      let net = Accals_circuits.Bench_suite.load name in
      let patterns = Sim.for_network ~seed:1 ~count:512 ~exhaustive_limit:10 net in
      let ctx = Accals_lac.Round_ctx.create net patterns in
      let config = Accals_lac.Candidate_gen.default_config in
      let seq = Accals_lac.Candidate_gen.generate ctx config in
      let par =
        Pool.with_pool ~jobs:3 (fun pool ->
            Accals_lac.Candidate_gen.generate ~pool ctx config)
      in
      check (name ^ " generated candidates identical") true (compare seq par = 0))
    [ "frg2"; "sqrt" ]

let test_exhaustive_pool_deterministic () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let r =
    Engine.run ~config:(small_config ~jobs:1 net) net ~metric:Metric.Error_rate
      ~error_bound:0.05
  in
  let approx = r.Engine.approximate in
  let seq = Accals_analysis.Exhaustive.compare_networks ~golden:net ~approx in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Accals_analysis.Exhaustive.compare_networks_with ~pool ~golden:net
          ~approx)
  in
  check "exhaustive reports identical" true (seq = par)


(* --- Chase-Lev deque --- *)

module Deque = Accals_runtime.Deque

let test_deque_owner_order () =
  let d = Deque.create () in
  for i = 1 to 100 do
    Deque.push d i
  done;
  (* Owner pops LIFO... *)
  check "pop is LIFO" true (Deque.pop d = Some 100);
  check "pop is LIFO 2" true (Deque.pop d = Some 99);
  (* ...thieves steal FIFO from the opposite end. *)
  check "steal is FIFO" true (Deque.steal d = Deque.Stolen 1);
  check "steal is FIFO 2" true (Deque.steal d = Deque.Stolen 2);
  let rec drain n = match Deque.pop d with Some _ -> drain (n + 1) | None -> n in
  check_int "remaining items" 96 (drain 0);
  check "empty steal" true (Deque.steal d = Deque.Empty);
  check "empty pop" true (Deque.pop d = None)

let test_deque_growth () =
  (* Push far past the initial capacity; nothing is lost or duplicated. *)
  let d = Deque.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Deque.push d i
  done;
  let seen = Array.make n false in
  let rec drain () =
    match Deque.pop d with
    | Some i ->
      check "no duplicate" false seen.(i);
      seen.(i) <- true;
      drain ()
    | None -> ()
  in
  drain ();
  check "all present" true (Array.for_all Fun.id seen)

let test_deque_concurrent_steal () =
  (* One owner pushing and popping, three thieves stealing concurrently:
     every item is consumed exactly once. *)
  let d = Deque.create () in
  let n = 20_000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let stolen = Atomic.make 0 in
  let done_ = Atomic.make false in
  let thief () =
    let rec loop () =
      match Deque.steal d with
      | Deque.Stolen i ->
        Atomic.incr hits.(i);
        Atomic.incr stolen;
        loop ()
      | Deque.Retry ->
        Domain.cpu_relax ();
        loop ()
      | Deque.Empty -> if not (Atomic.get done_) then loop ()
    in
    loop ()
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn thief) in
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 7 = 0 then
      match Deque.pop d with
      | Some j -> Atomic.incr hits.(j)
      | None -> ()
  done;
  let rec drain () =
    match Deque.pop d with
    | Some j ->
      Atomic.incr hits.(j);
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_ true;
  List.iter Domain.join thieves;
  check "each item consumed exactly once" true
    (Array.for_all (fun a -> Atomic.get a = 1) hits)

(* --- fork/join tickets --- *)

let test_fork_join_overlap () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let a = Array.make 500 0 and b = Array.make 300 0 in
      let ta = Fan_out.fork ~label:"fork.a" pool ~count:500 (fun i -> a.(i) <- i + 1) in
      let tb = Fan_out.fork ~label:"fork.b" pool ~count:300 (fun i -> b.(i) <- 2 * i) in
      (* Join out of submission order: batches are independent. *)
      Fan_out.join pool tb;
      Fan_out.join pool ta;
      check "batch a complete" true (Array.for_all2 ( = ) a (Array.init 500 (fun i -> i + 1)));
      check "batch b complete" true (Array.for_all2 ( = ) b (Array.init 300 (fun i -> 2 * i))))

let test_fork_join_failure () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let t =
        Fan_out.fork pool ~count:64 (fun i -> if i = 7 || i = 13 then failwith "unit died")
      in
      (match Fan_out.join pool t with
       | () -> Alcotest.fail "expected the forked failure to re-raise"
       | exception Failure m -> check "first failure wins" true (m = "unit died"));
      (* The pool survives a failed ticket. *)
      let ok = ref 0 in
      Pool.run pool ~count:10 (fun _ -> incr ok);
      check_int "pool alive after failure" 10 !ok)

let test_forked_singleton_not_inlined () =
  (* A forked count=1 batch must return before its task necessarily ran —
     fork must not silently degrade to a synchronous call. We can't assert
     scheduling, but we can assert completion via join and that fork/join
     on jobs=1 still works inline. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let cell = ref 0 in
      let t = Fan_out.fork pool ~count:1 (fun _ -> cell := 41) in
      Fan_out.join pool t;
      check_int "singleton ran" 41 !cell);
  Pool.with_pool ~jobs:1 (fun pool ->
      let cell = ref 0 in
      let t = Fan_out.fork pool ~count:1 (fun _ -> cell := 42) in
      Fan_out.join pool t;
      check_int "jobs=1 inline fork" 42 !cell)

(* --- task-cost model and pool telemetry --- *)

let test_task_cost_model () =
  let stats = Stats.create ~jobs:2 in
  check "no cost yet" true (Stats.task_cost stats "phase-x" = None);
  Stats.note_task_cost stats ~label:"phase-x" ~tasks:10 ~seconds:1e-3;
  (match Stats.task_cost stats "phase-x" with
   | Some c -> check "first sample sets the EWMA" true (abs_float (c -. 1e-4) < 1e-12)
   | None -> Alcotest.fail "cost model empty after a sample");
  (* Further samples move the estimate toward the new cost, smoothly. *)
  Stats.note_task_cost stats ~label:"phase-x" ~tasks:10 ~seconds:2e-3;
  (match Stats.task_cost stats "phase-x" with
   | Some c ->
     check "EWMA moved up" true (c > 1e-4);
     check "EWMA not overshooting" true (c < 2e-4)
   | None -> Alcotest.fail "cost model lost its label");
  check "labels are independent" true (Stats.task_cost stats "phase-y" = None)

let test_pool_telemetry_series () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Fan_out.submit ~label:"telemetry-probe" pool ~count:256 (fun i -> Sys.opaque_identity (ignore i));
      let snap = Stats.snapshot (Pool.stats pool) in
      check "steal counter non-negative" true (snap.Stats.steals >= 0);
      check "idle seconds non-negative" true (snap.Stats.idle_seconds >= 0.0);
      let prom =
        Accals_telemetry.Metrics.to_prometheus
          (Accals_telemetry.Metrics.snapshot (Stats.metrics (Pool.stats pool)))
      in
      let contains needle =
        let n = String.length needle and h = String.length prom in
        let rec go i = i + n <= h && (String.sub prom i n = needle || go (i + 1)) in
        go 0
      in
      check "steal series exported" true (contains "accals_pool_steal_total");
      check "idle time series exported" true (contains "accals_pool_idle_seconds_total");
      check "idle workers gauge exported" true (contains "accals_pool_workers_idle");
      check "task cost histogram exported" true (contains "accals_pool_task_cost_seconds");
      check "histogram labelled by phase" true (contains "phase=\"telemetry-probe\""))

let test_many_batches_deterministic () =
  (* Several in-flight batches, joined in reverse, repeated: results always
     equal the sequential reference. *)
  let reference = Array.init 200 (fun i -> (i * 37) mod 101) in
  Pool.with_pool ~jobs:3 (fun pool ->
      for _ = 1 to 10 do
        let results = Array.init 4 (fun _ -> Array.make 200 (-1)) in
        let tickets =
          List.init 4 (fun k ->
              Fan_out.fork ~label:"det" pool ~count:200 (fun i ->
                  results.(k).(i) <- (i * 37) mod 101))
        in
        List.iter (Fan_out.join pool) (List.rev tickets);
        Array.iter (fun r -> check "batch equals reference" true (r = reference)) results
      done)

let suite =
  [
    ( "runtime pool",
      [
        Alcotest.test_case "lifecycle and reuse" `Quick test_pool_lifecycle;
        Alcotest.test_case "jobs=1 bypass" `Quick test_pool_sequential_bypass;
        Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
        Alcotest.test_case "exception propagation" `Quick test_pool_exception;
      ] );
    ( "runtime deque",
      [
        Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_owner_order;
        Alcotest.test_case "growth" `Quick test_deque_growth;
        Alcotest.test_case "concurrent stealing" `Quick test_deque_concurrent_steal;
      ] );
    ( "runtime fork/join",
      [
        Alcotest.test_case "overlapping tickets" `Quick test_fork_join_overlap;
        Alcotest.test_case "failure re-raised at join" `Quick test_fork_join_failure;
        Alcotest.test_case "forked singleton" `Quick test_forked_singleton_not_inlined;
        Alcotest.test_case "many batches deterministic" `Quick
          test_many_batches_deterministic;
      ] );
    ( "runtime telemetry",
      [
        Alcotest.test_case "task-cost model" `Quick test_task_cost_model;
        Alcotest.test_case "pool metric series" `Quick test_pool_telemetry_series;
      ] );
    ( "runtime fan-out",
      [
        Alcotest.test_case "map matches sequential" `Quick
          test_map_matches_sequential;
        Alcotest.test_case "per-chunk state" `Quick test_map_with_state;
        Alcotest.test_case "map_reduce merge order" `Quick
          test_map_reduce_order;
        Alcotest.test_case "concat_map" `Quick test_concat_map;
      ] );
    ( "runtime determinism",
      [
        Alcotest.test_case "engine jobs=4 = jobs=1" `Slow
          test_engine_jobs_deterministic;
        Alcotest.test_case "estimator and candidate_gen" `Quick
          test_estimator_score_deterministic;
        Alcotest.test_case "cone cache counters independent of -j" `Quick
          test_cone_cache_counters_jobs_independent;
        Alcotest.test_case "exhaustive comparison" `Quick
          test_exhaustive_pool_deterministic;
      ] );
  ]
