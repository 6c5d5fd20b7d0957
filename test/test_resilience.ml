(* lib/resilience + its wiring: deterministic fault injection and pool
   recovery, checkpoint files, engine checkpoint/resume bit-identity, and
   watchdog degradation. *)

open Accals_network
module Fault = Accals_resilience.Fault
module Fault_io = Accals_resilience.Fault_io
module Budget = Accals_resilience.Budget
module Watchdog = Accals_resilience.Watchdog
module Checkpoint = Accals_resilience.Checkpoint
module Incident = Accals_audit.Incident
module Degradation = Accals_audit.Degradation
module Pool = Accals_runtime.Pool
module Fan_out = Accals_runtime.Fan_out
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Metric = Accals_metrics.Metric

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every fault test disarms on exit so the rest of the suite is unaffected
   (unless ACCALS_FAULTS re-arms the whole process, which the CI fault job
   relies on). *)
let with_faults spec f =
  let before = Fault.current () in
  Fault.arm spec;
  Fun.protect
    ~finally:(fun () ->
      match before with Some s -> Fault.arm s | None -> Fault.disarm ())
    f

(* --- Fault spec parsing and selection determinism --- *)

let test_fault_parse () =
  (match Fault.parse "seed:42" with
  | Ok s ->
    check_int "seed" 42 s.Fault.seed;
    check_int "default every" 4 s.Fault.every;
    check_int "default attempts" 1 s.Fault.attempts;
    check "default mode" true (s.Fault.mode = Fault.Raise)
  | Error e -> Alcotest.failf "seed:42 rejected: %s" e);
  (match Fault.parse "seed:7,every:2,attempts:3,stall:0.5" with
  | Ok s ->
    check_int "every" 2 s.Fault.every;
    check_int "attempts" 3 s.Fault.attempts;
    check "stall mode" true (s.Fault.mode = Fault.Stall 0.5)
  | Error e -> Alcotest.failf "full spec rejected: %s" e);
  check "missing seed rejected" true
    (match Fault.parse "every:2" with Error _ -> true | Ok _ -> false);
  check "bad key rejected" true
    (match Fault.parse "seed:1,frobnicate:9" with
    | Error _ -> true
    | Ok _ -> false);
  check "garbage rejected" true
    (match Fault.parse "%%%" with Error _ -> true | Ok _ -> false)

let selected spec ~batch ~count ~attempt =
  with_faults spec (fun () ->
      List.filter
        (fun i ->
          match Fault.check ~batch ~index:i ~attempt with
          | () -> false
          | exception Fault.Injected _ -> true)
        (List.init count (fun i -> i)))

let test_fault_deterministic_selection () =
  let spec = Fault.default ~seed:42 in
  let a = selected spec ~batch:5 ~count:200 ~attempt:0 in
  let b = selected spec ~batch:5 ~count:200 ~attempt:0 in
  check "same (seed,batch) -> same fault set" true (a = b);
  check "roughly 1/every units selected" true
    (let n = List.length a in
     n > 20 && n < 80);
  let other_batch = selected spec ~batch:6 ~count:200 ~attempt:0 in
  check "different batch -> different fault set" true (a <> other_batch);
  let other_seed = selected (Fault.default ~seed:43) ~batch:5 ~count:200 ~attempt:0 in
  check "different seed -> different fault set" true (a <> other_seed);
  (* attempts:1 means only attempt 0 is faulted: a retry succeeds. *)
  check "retry attempt not faulted" true
    (selected spec ~batch:5 ~count:200 ~attempt:1 = [])

(* --- Syscall-level fault injection (Fault_io) --- *)

let with_io_faults spec f =
  let before = Fault_io.current () in
  Fault_io.arm spec;
  Fun.protect
    ~finally:(fun () ->
      match before with
      | Some s -> Fault_io.arm s
      | None -> Fault_io.disarm ())
    f

let io_spec s =
  match Fault_io.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec %S rejected: %s" s e

let test_fault_io_parse () =
  let one = io_spec "write:enospc@3" in
  check "single occurrence clause" true
    (one.Fault_io.clauses
    = [ { Fault_io.site = Fault_io.Write; kind = Fault_io.Enospc;
          sel = `At (3, 3) } ]);
  let range = io_spec "open:emfile@1..4" in
  check "range clause" true
    (range.Fault_io.clauses
    = [ { Fault_io.site = Fault_io.Open; kind = Fault_io.Emfile;
          sel = `At (1, 4) } ]);
  let prob = io_spec "seed:9,rename:enospc%8" in
  check_int "seed carried" 9 prob.Fault_io.seed;
  check "probabilistic clause" true
    (prob.Fault_io.clauses
    = [ { Fault_io.site = Fault_io.Rename; kind = Fault_io.Enospc;
          sel = `Every 8 } ]);
  check "multi-clause spec" true
    (List.length (io_spec "write:short@2,fsync:enospc@1").Fault_io.clauses = 2);
  let rejected s =
    match Fault_io.parse s with Error _ -> true | Ok _ -> false
  in
  check "% without seed rejected" true (rejected "write:enospc%4");
  check "unknown site rejected" true (rejected "frobnicate:enospc@1");
  check "unknown kind rejected" true (rejected "write:eio@1");
  check "zero occurrence rejected" true (rejected "write:enospc@0");
  check "inverted range rejected" true (rejected "write:enospc@4..2");
  check "bare seed rejected" true (rejected "seed:3");
  check "garbage rejected" true (rejected "%%%")

let test_fault_io_occurrence_counting () =
  let tmp = Filename.temp_file "accals_fio" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  let write_n oc n =
    List.init n (fun i ->
        match Fault_io.output_string oc (Printf.sprintf "line%d\n" i) with
        | () -> false
        | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true)
  in
  with_io_faults (io_spec "write:enospc@2") (fun () ->
      let oc = Fault_io.open_out_bin tmp in
      let hits = write_n oc 4 in
      close_out_noerr oc;
      check "exactly the 2nd governed write fails" true
        (hits = [ false; true; false; false ]);
      check_int "one injection recorded" 1 (Fault_io.injected_count ());
      (* Re-arming resets the per-site occurrence counters. *)
      Fault_io.arm (io_spec "write:enospc@2");
      let oc = Fault_io.open_out_bin tmp in
      check "counter reset on arm" true
        (write_n oc 3 = [ false; true; false ]);
      close_out_noerr oc);
  (* Disarmed wrappers are the plain calls. *)
  let oc = Fault_io.open_out_bin tmp in
  Fault_io.output_string oc "clean";
  close_out oc;
  check "disarmed write lands" true
    (In_channel.with_open_bin tmp In_channel.input_all = "clean")

let test_fault_io_short_write_is_torn () =
  let tmp = Filename.temp_file "accals_fio_torn" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
  @@ fun () ->
  let payload = "0123456789abcdef" in
  with_io_faults (io_spec "write:short@1") (fun () ->
      let oc = Fault_io.open_out_bin tmp in
      check "short write raises ENOSPC" true
        (match Fault_io.output_string oc payload with
        | () -> false
        | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true);
      close_out_noerr oc);
  let on_disk = In_channel.with_open_bin tmp In_channel.input_all in
  check "a strict prefix landed (torn file)" true
    (String.length on_disk > 0
    && String.length on_disk < String.length payload
    && on_disk = String.sub payload 0 (String.length on_disk))

let test_fault_io_probabilistic_determinism () =
  let run spec =
    with_io_faults spec (fun () ->
        let oc = Fault_io.open_out_bin "/dev/null" in
        let hits =
          List.init 64 (fun _ ->
              match Fault_io.output_string oc "x" with
              | () -> false
              | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true)
        in
        close_out_noerr oc;
        hits)
  in
  let a = run (io_spec "seed:5,write:enospc%4") in
  check "some faults injected" true (List.exists Fun.id a);
  check "not every write faulted" true (List.exists not a);
  check "same seed -> same fault positions" true
    (a = run (io_spec "seed:5,write:enospc%4"));
  check "different seed -> different positions" true
    (a <> run (io_spec "seed:6,write:enospc%4"))

(* Checkpoints under injected faults: whatever fails — open, write, torn
   write, fsync, rename — the previous checkpoint must survive intact and
   no temp file may linger. *)
let test_checkpoint_survives_injected_faults () =
  let path = Filename.temp_file "accals_ckpt_fault" ".ckpt" in
  let dir = Filename.dirname path in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Checkpoint.save ~path ~tag:"t" ([ 1; 2; 3 ], "v1");
  let no_temps () =
    Array.for_all
      (fun f -> not (String.length f > 0 && Filename.check_suffix f
                       (Printf.sprintf ".tmp.%d" (Unix.getpid ()))))
      (Sys.readdir dir)
  in
  List.iter
    (fun spec_s ->
      with_io_faults (io_spec spec_s) (fun () ->
          check (spec_s ^ " raises") true
            (match Checkpoint.save ~path ~tag:"t" ([ 9 ], "v2") with
            | () -> false
            | exception Unix.Unix_error ((Unix.ENOSPC | Unix.EMFILE), _, _) ->
              true));
      check (spec_s ^ ": no temp residue") true (no_temps ());
      check (spec_s ^ ": previous checkpoint intact") true
        (Checkpoint.load ~path ~tag:"t" = Some ([ 1; 2; 3 ], "v1")))
    [
      "open:emfile@1";
      "write:enospc@1";
      "write:short@1";
      "write:short@2";
      "fsync:enospc@1";
      "rename:enospc@1";
    ];
  (* After the chaos, a clean save goes through. *)
  Checkpoint.save ~path ~tag:"t" ([ 9 ], "v2");
  check "clean save after faults" true
    (Checkpoint.load ~path ~tag:"t" = Some ([ 9 ], "v2"))

(* --- Budget governors --- *)

let test_budget_memory_classify () =
  let m = Budget.Memory.create ~limit_bytes:1000 in
  check "well under -> Nominal" true
    (Budget.Memory.classify m ~bytes:500 = Budget.Memory.Nominal);
  check "just under soft -> Nominal" true
    (Budget.Memory.classify m ~bytes:849 = Budget.Memory.Nominal);
  check "85% -> Soft" true
    (Budget.Memory.classify m ~bytes:850 = Budget.Memory.Soft);
  check "at limit -> Hard" true
    (Budget.Memory.classify m ~bytes:1000 = Budget.Memory.Hard);
  check "over limit -> Hard" true
    (Budget.Memory.classify m ~bytes:5000 = Budget.Memory.Hard);
  let off = Budget.Memory.create ~limit_bytes:0 in
  check "disabled limit never pressures" true
    (Budget.Memory.classify off ~bytes:max_int = Budget.Memory.Nominal)

let test_budget_memory_sources () =
  let m = Budget.Memory.create ~limit_bytes:0 in
  let base = Budget.Memory.sample m in
  check "base sample is the GC heap" true (base > 0);
  Budget.Memory.register_source m ~name:"arena" (fun () -> 10_000_000);
  check "sources add on top" true (Budget.Memory.sample m >= base + 10_000_000);
  (* Same name replaces, a raising source counts zero, negatives clamp. *)
  Budget.Memory.register_source m ~name:"arena" (fun () -> failwith "probe");
  Budget.Memory.register_source m ~name:"neg" (fun () -> -42);
  let resampled = Budget.Memory.sample m in
  check "raising/negative sources stand down" true
    (resampled < base + 10_000_000)

let test_budget_disk () =
  let dir = Filename.temp_file "accals_budget" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  check_int "empty dir usage" 0 (Budget.Disk.usage_bytes dir);
  let write name bytes =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc (String.make bytes 'x');
    close_out oc
  in
  write "a" 100;
  write "b" 23;
  check_int "usage sums regular files" 123 (Budget.Disk.usage_bytes dir);
  check_int "missing dir usage" 0 (Budget.Disk.usage_bytes "/nonexistent/x");
  check "zero headroom always passes" true
    (Budget.Disk.has_headroom ~dir ~headroom_bytes:0);
  (match Budget.Disk.free_bytes dir with
  | None -> () (* platform without statvfs: governors stand down *)
  | Some free ->
    check "free space is positive" true (free > 0);
    check "headroom below free passes" true
      (Budget.Disk.has_headroom ~dir ~headroom_bytes:1);
    check "headroom above free fails" false
      (Budget.Disk.has_headroom ~dir ~headroom_bytes:max_int))

let test_budget_fd () =
  (match Budget.Fd.open_fds () with
  | None -> () (* no /proc *)
  | Some n -> check "some descriptors open" true (n > 0));
  (match (Budget.Fd.open_fds (), Budget.Fd.limit ()) with
  | Some _, Some lim ->
    check "limit sane" true (lim > 0);
    check "normal reserve accepts" true (Budget.Fd.should_accept ~reserve:0);
    check "impossible reserve refuses" false
      (Budget.Fd.should_accept ~reserve:max_int)
  | _ ->
    (* Probes unavailable: the governor must stand down, not refuse. *)
    check "unknown probes always accept" true
      (Budget.Fd.should_accept ~reserve:max_int))

(* --- Pool.try_run failure collection --- *)

exception Boom of int

let test_pool_try_run () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let hits = Array.make 40 0 in
      let failures =
        Pool.try_run pool ~count:40 (fun i ->
            hits.(i) <- hits.(i) + 1;
            if i mod 7 = 3 then raise (Boom i))
      in
      check "whole batch drains despite failures" true
        (Array.for_all (( = ) 1) hits);
      let idx = List.map (fun f -> f.Pool.index) failures in
      check "failed indices, ascending" true (idx = [ 3; 10; 17; 24; 31; 38 ]);
      check "exceptions preserved" true
        (List.for_all2
           (fun f i -> f.Pool.exn = Boom i)
           failures idx);
      check "no failures -> empty list" true
        (Pool.try_run pool ~count:10 (fun _ -> ()) = []))

let test_pool_try_run_sequential () =
  (* jobs = 1 takes the inline path; same contract. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let failures =
        Pool.try_run pool ~count:10 (fun i -> if i >= 8 then raise (Boom i))
      in
      check "inline failures collected" true
        (List.map (fun f -> f.Pool.index) failures = [ 8; 9 ]))

(* --- Fan_out recovery --- *)

let test_fanout_transient_recovery () =
  (* attempts:1 faults die on the first attempt and succeed on retry: the
     fan-out must recover and produce the failure-free result. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let arr = Array.init 100 (fun i -> i) in
      let expect = Array.map (fun i -> (i * 7) + 1) arr in
      let clean = Fan_out.map_array pool ~f:(fun i -> (i * 7) + 1) arr in
      check "fault-free baseline" true (clean = expect);
      with_faults
        { (Fault.default ~seed:42) with Fault.every = 3 }
        (fun () ->
          let before = Fault.injected_count () in
          let got = Fan_out.map_array pool ~f:(fun i -> (i * 7) + 1) arr in
          check "faults were actually injected" true
            (Fault.injected_count () > before);
          check "recovered result identical" true (got = expect)))

let test_fanout_exhausted_retries () =
  Pool.with_pool ~jobs:2 (fun pool ->
      with_faults
        { (Fault.default ~seed:1) with Fault.every = 1; Fault.attempts = 1000 }
        (fun () ->
          match Fan_out.map_array pool ~f:(fun i -> i) (Array.init 5 Fun.id) with
          | _ -> Alcotest.fail "persistent faults must raise Runtime_failure"
          | exception Fan_out.Runtime_failure { attempts; failed; _ } ->
            check_int "attempts exhausted" Fan_out.max_attempts attempts;
            check "every unit still failing, ascending" true
              (List.map fst failed = [ 0; 1; 2; 3; 4 ])))

let test_fanout_stall_mode () =
  Pool.with_pool ~jobs:3 (fun pool ->
      with_faults
        {
          (Fault.default ~seed:9) with
          Fault.every = 5;
          Fault.mode = Fault.Stall 0.001;
        }
        (fun () ->
          let arr = Array.init 50 (fun i -> i) in
          check "stalled workers still finish correctly" true
            (Fan_out.map_array pool ~f:(fun i -> i * 2) arr
            = Array.map (fun i -> i * 2) arr)))

(* --- Engine under fault injection --- *)

let small_config ?(jobs = 1) net =
  Config.for_network
    ~base:{ Config.default with samples = 512; seed = 1; jobs }
    net

(* Resim counters are work accounting, not algorithm state: a resumed run
   rebuilds its signature database from the checkpoint, so its first new
   round re-evaluates every live node where the uninterrupted run only
   touched the dirty cone.  Compare every algorithmic field and zero the
   counters. *)
let round_key (r : Trace.round) =
  { r with Trace.resim_nodes = 0; resim_converged = 0; resim_recycled = 0 }

let report_fingerprint (r : Engine.report) =
  ( r.Engine.error,
    r.Engine.area_ratio,
    r.Engine.delay_ratio,
    r.Engine.adp_ratio,
    List.map round_key r.Engine.rounds,
    r.Engine.exact_evaluations,
    r.Engine.degraded )

let test_engine_with_faults_identical () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let clean =
    Engine.run ~config:(small_config ~jobs:3 net) net ~metric:Metric.Error_rate
      ~error_bound:0.03
  in
  let faulted =
    with_faults (Fault.default ~seed:42) (fun () ->
        Engine.run ~config:(small_config ~jobs:3 net) net
          ~metric:Metric.Error_rate ~error_bound:0.03)
  in
  check "fault-injected synthesis report identical" true
    (report_fingerprint clean = report_fingerprint faulted)

(* --- Checkpoint files --- *)

let temp_ckpt () = Filename.temp_file "accals_test" ".ckpt"

let test_checkpoint_roundtrip () =
  let path = temp_ckpt () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let v = ([ 1; 2; 3 ], "hello", 3.14) in
  Checkpoint.save ~path ~tag:"test" v;
  (match Checkpoint.load ~path ~tag:"test" with
  | Some w -> check "payload round-trips" true (w = v)
  | None -> Alcotest.fail "saved checkpoint not found");
  (* Overwrite is atomic-replace, not append. *)
  Checkpoint.save ~path ~tag:"test" ([ 9 ], "bye", 0.0);
  (match Checkpoint.load ~path ~tag:"test" with
  | Some w -> check "latest save wins" true (w = ([ 9 ], "bye", 0.0))
  | None -> Alcotest.fail "overwritten checkpoint not found");
  check "no stray temp files" true
    (Array.for_all
       (fun f -> not (String.length f > 4 && String.sub f 0 4 = ".tmp"))
       (Sys.readdir (Filename.dirname path)))

let test_checkpoint_missing_and_corrupt () =
  check "absent file -> None" true
    (Checkpoint.load ~path:"/nonexistent/nowhere.ckpt" ~tag:"test" = None);
  let path = temp_ckpt () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let expect_corrupt label =
    check label true
      (match Checkpoint.load ~path ~tag:"test" with
      | exception Checkpoint.Corrupt _ -> true
      | _ -> false)
  in
  let oc = open_out path in
  output_string oc "not a checkpoint at all\n";
  close_out oc;
  expect_corrupt "garbage header -> Corrupt";
  Checkpoint.save ~path ~tag:"other" 42;
  expect_corrupt "tag mismatch -> Corrupt";
  Checkpoint.save ~path ~tag:"test" 42;
  (* Truncate the marshalled payload mid-way. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 4));
  close_out oc;
  expect_corrupt "truncated payload -> Corrupt"

(* --- Engine checkpoint/resume bit-identity --- *)

let test_resume_every_round () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let snapshots = ref [] in
  let clean =
    Engine.run ~config:(small_config net)
      ~checkpoint:(fun s -> snapshots := s :: !snapshots)
      net ~metric:Metric.Error_rate ~error_bound:0.03
  in
  let clean_fp = report_fingerprint clean in
  let snaps = List.rev !snapshots in
  check "one snapshot per round plus terminal" true
    (List.length snaps = List.length clean.Engine.rounds + 1);
  List.iter
    (fun snap ->
      let resumed = Engine.resume snap in
      if report_fingerprint resumed <> clean_fp then
        Alcotest.failf "resume at round %d diverges from uninterrupted run"
          (Engine.snapshot_round snap))
    snaps;
  (* Resuming with a different job count must not change the result, and a
     snapshot is reusable: resume the same one twice. *)
  let mid = List.nth snaps (List.length snaps / 2) in
  check "resume with jobs=4 identical" true
    (report_fingerprint (Engine.resume ~jobs:4 mid) = clean_fp);
  check "snapshot reusable" true
    (report_fingerprint (Engine.resume mid) = clean_fp)

let test_resume_through_checkpoint_file () =
  (* The full persistence path: marshal each snapshot to disk, load the
     penultimate one back, resume, compare. *)
  let net = Accals_circuits.Bench_suite.load "rca32" in
  let path = temp_ckpt () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let clean =
    Engine.run ~config:(small_config net)
      ~checkpoint:(fun s -> Checkpoint.save ~path ~tag:"engine" s)
      net ~metric:Metric.Error_rate ~error_bound:0.01
  in
  match Checkpoint.load ~path ~tag:"engine" with
  | None -> Alcotest.fail "no checkpoint written"
  | Some snap ->
    check "terminal snapshot is finished" true (Engine.snapshot_finished snap);
    check "snapshot names its circuit" true
      (Engine.snapshot_circuit snap = Network.name net);
    check "resume from disk reproduces the report" true
      (report_fingerprint (Engine.resume snap) = report_fingerprint clean)

(* --- Watchdogs --- *)

let test_watchdog_basics () =
  check "unlimited never expires" true (not (Watchdog.expired Watchdog.unlimited));
  check "None budget never expires" true
    (not (Watchdog.expired (Watchdog.start None)));
  let w = Watchdog.start (Some 0.0) in
  check "zero budget expires immediately" true (Watchdog.expired w);
  check "remaining clamps at zero" true (Watchdog.remaining w = Some 0.0);
  let generous = Watchdog.start (Some 3600.0) in
  check "generous budget not expired" true (not (Watchdog.expired generous));
  check "elapsed is non-negative" true (Watchdog.elapsed generous >= 0.0)

let test_run_deadline_degrades () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let config =
    { (small_config net) with Config.run_deadline = Some 1e-9 }
  in
  let r = Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "degraded flag set" true r.Engine.degraded;
  check "at most one round ran" true (List.length r.Engine.rounds <= 1);
  (* Best-so-far is still a valid network within the bound. *)
  Network.validate r.Engine.approximate;
  check "error within bound" true (r.Engine.error <= 0.03)

let test_round_deadline_forces_single () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let config =
    {
      (small_config net) with
      Config.round_deadline = Some 0.0;
      validate_rounds = true;
    }
  in
  let r = Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "not degraded (per-round fallback only)" true (not r.Engine.degraded);
  check "every round fell back to single-LAC" true
    (List.for_all (fun rd -> rd.Trace.mode = Trace.Single) r.Engine.rounds);
  Network.validate r.Engine.approximate

(* --- Memory budget governor --- *)

let test_memory_budget_generous_identical () =
  (* A budget the run never approaches must not perturb the result: the
     governor samples every round but takes no action. *)
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let clean =
    Engine.run ~config:(small_config net) net ~metric:Metric.Error_rate
      ~error_bound:0.03
  in
  let budgeted =
    Engine.run
      ~config:{ (small_config net) with Config.max_memory_mb = 1 lsl 20 }
      net ~metric:Metric.Error_rate ~error_bound:0.03
  in
  check "generous budget bit-identical" true
    (report_fingerprint clean = report_fingerprint budgeted)

let test_memory_budget_sheds_not_crashes () =
  (* A 1 MiB budget is below any real heap: relief cannot bring the run
     under it, so the governor checkpoints and sheds — the run ends
     degraded with a Resource_exhausted incident and a final finished
     snapshot, never an allocation failure. *)
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let last_snap = ref None in
  let r =
    Engine.run
      ~config:{ (small_config net) with Config.max_memory_mb = 1 }
      ~checkpoint:(fun s -> last_snap := Some s)
      net ~metric:Metric.Error_rate ~error_bound:0.03
  in
  check "run degraded" true r.Engine.degraded;
  check "degraded for resource pressure" true
    ((Degradation.of_incidents r.Engine.incidents).Degradation.reason
    = Some Degradation.Resource_pressure);
  check "resource_exhausted incident recorded" true
    (List.exists
       (fun i ->
         match i.Incident.kind with
         | Incident.Resource_exhausted { resource; limit; observed } ->
           resource = "memory" && limit > 0.0 && observed >= limit
         | _ -> false)
       r.Engine.incidents);
  (* The shed still hands back a valid best-so-far circuit ... *)
  Network.validate r.Engine.approximate;
  check "error still within bound" true (r.Engine.error <= 0.03);
  (* ... and the last checkpoint is terminal, so a restart with more
     memory resumes instead of redoing the work. *)
  match !last_snap with
  | None -> Alcotest.fail "no checkpoint emitted"
  | Some snap -> check "final snapshot finished" true
                   (Engine.snapshot_finished snap)

(* --- Invariant guards --- *)

let test_validate_self_loop () =
  let t = Network.create ~name:"loop" () in
  let a = Network.add_input t "a" in
  let f = Network.add_node t Accals_network.Gate.Buf [| a |] in
  Network.set_outputs t [| ("y", f) |];
  Network.validate t;
  Network.replace ~check_cycle:false t f Accals_network.Gate.Buf [| f |];
  check "self-loop caught" true
    (match Network.validate t with
    | exception Network.Invariant_violation { node = Some n; _ } -> n = f
    | _ -> false)

let test_validate_cycle () =
  let t = Network.create ~name:"cycle" () in
  let a = Network.add_input t "a" in
  let f = Network.add_node t Accals_network.Gate.Buf [| a |] in
  let g = Network.add_node t Accals_network.Gate.Buf [| f |] in
  Network.set_outputs t [| ("y", g) |];
  Network.validate t;
  Network.replace ~check_cycle:false t f Accals_network.Gate.Buf [| g |];
  check "two-node cycle caught" true
    (match Network.validate t with
    | exception Network.Invariant_violation _ -> true
    | _ -> false)

let suite =
  [
    ( "resilience faults",
      [
        Alcotest.test_case "spec parsing" `Quick test_fault_parse;
        Alcotest.test_case "deterministic selection" `Quick
          test_fault_deterministic_selection;
      ] );
    ( "resilience syscall faults",
      [
        Alcotest.test_case "spec parsing" `Quick test_fault_io_parse;
        Alcotest.test_case "per-site occurrence counting" `Quick
          test_fault_io_occurrence_counting;
        Alcotest.test_case "short write tears the file" `Quick
          test_fault_io_short_write_is_torn;
        Alcotest.test_case "probabilistic clauses deterministic" `Quick
          test_fault_io_probabilistic_determinism;
        Alcotest.test_case "checkpoint survives every fault site" `Quick
          test_checkpoint_survives_injected_faults;
      ] );
    ( "resilience budgets",
      [
        Alcotest.test_case "memory pressure thresholds" `Quick
          test_budget_memory_classify;
        Alcotest.test_case "memory sources" `Quick test_budget_memory_sources;
        Alcotest.test_case "disk probes" `Quick test_budget_disk;
        Alcotest.test_case "fd governor" `Quick test_budget_fd;
        Alcotest.test_case "generous budget is bit-identical" `Slow
          test_memory_budget_generous_identical;
        Alcotest.test_case "tiny budget sheds gracefully" `Quick
          test_memory_budget_sheds_not_crashes;
      ] );
    ( "resilience pool recovery",
      [
        Alcotest.test_case "try_run collects failures" `Quick test_pool_try_run;
        Alcotest.test_case "try_run sequential path" `Quick
          test_pool_try_run_sequential;
        Alcotest.test_case "transient faults recovered" `Quick
          test_fanout_transient_recovery;
        Alcotest.test_case "persistent faults exhaust" `Quick
          test_fanout_exhausted_retries;
        Alcotest.test_case "stall mode" `Quick test_fanout_stall_mode;
        Alcotest.test_case "engine report identical under faults" `Slow
          test_engine_with_faults_identical;
      ] );
    ( "resilience checkpoints",
      [
        Alcotest.test_case "file round-trip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "missing and corrupt files" `Quick
          test_checkpoint_missing_and_corrupt;
        Alcotest.test_case "resume at every round is bit-identical" `Slow
          test_resume_every_round;
        Alcotest.test_case "resume through a checkpoint file" `Quick
          test_resume_through_checkpoint_file;
      ] );
    ( "resilience watchdogs",
      [
        Alcotest.test_case "basics" `Quick test_watchdog_basics;
        Alcotest.test_case "run deadline degrades" `Quick
          test_run_deadline_degrades;
        Alcotest.test_case "round deadline forces single mode" `Quick
          test_round_deadline_forces_single;
      ] );
    ( "resilience invariants",
      [
        Alcotest.test_case "self-loop" `Quick test_validate_self_loop;
        Alcotest.test_case "cycle" `Quick test_validate_cycle;
      ] );
  ]
