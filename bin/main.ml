(* accals: command-line front end for the AccALS library. *)

open Accals_network
open Cmdliner
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Checkpoint = Accals_resilience.Checkpoint
module Incident = Accals_audit.Incident
module Degradation = Accals_audit.Degradation
module Certify = Accals_audit.Certify
module Telemetry = Accals_telemetry.Telemetry
module Tracer = Accals_telemetry.Tracer
module Progress = Accals_telemetry.Progress
module Metrics = Accals_telemetry.Metrics
module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Trace_context = Accals_telemetry.Trace_context
module Profiler = Accals_telemetry.Profiler
module Build_info = Accals_telemetry.Build_info
module Report_json = Accals.Report_json
module Server = Accals_server.Server
module Client = Accals_server.Client
module Sproto = Accals_server.Protocol
module Graceful = Accals_server.Graceful

(* Exit codes (also listed in `accals --help`):
     0   success
     1   run failure — runtime fault exhausted its retries, invariant
         violation, corrupt or incompatible checkpoint
     2   usage error — bad command line, unknown circuit, unreadable or
         malformed input file
     125 unexpected internal error *)
let usage_exit = 2
let failure_exit = 1
let internal_exit = 125

let user_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "accals: %s\n" msg;
      exit usage_exit)
    fmt

let load_circuit spec =
  (* A registered benchmark name, or a path to a BLIF / AIGER file. *)
  if Sys.file_exists spec then begin
    if Filename.check_suffix spec ".aag" then
      Accals_aig.Aig.to_network (Accals_aig.Aiger.parse_file spec)
    else Blif.parse_file spec
  end
  else
    try Bench_suite.load spec
    with Not_found ->
      user_error "unknown circuit %s (not a file, not a registered benchmark)"
        spec

let print_stats net =
  Printf.printf "%-10s %6d PIs %4d POs %6d AIG nodes  area %10.1f  delay %8.1f\n"
    (Network.name net)
    (Array.length (Network.inputs net))
    (Array.length (Network.outputs net))
    (Cost.aig_node_count net) (Cost.area net) (Cost.delay net)

(* --- list --- *)

let list_cmd =
  let doc = "List the registered benchmark circuits." in
  let run () =
    List.iter
      (fun (name, cat) ->
        Printf.printf "%-10s %s\n" name (Bench_suite.category_to_string cat))
      Bench_suite.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- stats --- *)

let circuit_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT" ~doc:"Benchmark name or BLIF file path.")

let stats_cmd =
  let doc = "Print size/area/delay statistics of a circuit." in
  let run spec = print_stats (load_circuit spec) in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ circuit_arg)

(* --- synth --- *)

let metric_arg =
  let parse s =
    match Metric.kind_of_string s with
    | Some k -> `Ok k
    | None -> `Error (Printf.sprintf "unknown metric %s" s)
  in
  let print fmt k = Format.pp_print_string fmt (Metric.kind_to_string k) in
  let metric_conv = (parse, print) in
  Arg.(
    value
    & opt metric_conv Metric.Error_rate
    & info [ "m"; "metric" ] ~docv:"METRIC" ~doc:"Error metric: ER, NMED or MRED.")

let bound_arg =
  Arg.(
    required
    & opt (some float) None
    & info [ "b"; "bound" ] ~docv:"BOUND" ~doc:"Error bound, e.g. 0.05 for 5%.")

let method_arg =
  Arg.(
    value
    & opt (enum [ ("accals", `Accals); ("seals", `Seals); ("amosa", `Amosa) ]) `Accals
    & info [ "method" ] ~docv:"METHOD" ~doc:"Synthesis flow: accals, seals or amosa.")

let samples_arg =
  Arg.(
    value
    & opt int 2048
    & info [ "samples" ] ~docv:"N" ~doc:"Random simulation patterns.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the parallel runtime. 0 (the default) \
           auto-detects the machine's recommended domain count, clamped \
           to [1, 64], and logs the choice to stderr. Results are \
           bit-identical for every value; 1 runs the reference sequential \
           path.")

(* --jobs 0 auto-detection for synth/verify/sweep: [Config.resolve_jobs]
   (which the daemon uses too), logged to stderr. *)
let resolve_jobs jobs =
  let resolved = Config.resolve_jobs jobs in
  (if jobs <= 0 then
     let detected = Domain.recommended_domain_count () in
     Printf.eprintf "accals: jobs auto-detected: %d domain(s)%s\n%!" detected
       (if resolved <> detected then Printf.sprintf " (clamped to %d)" resolved
        else ""));
  resolved

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the result as BLIF.")

let verilog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "verilog" ] ~docv:"FILE" ~doc:"Write the result as Verilog.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the per-round trace.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write the per-round trace as CSV.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Save the engine state to $(docv)/$(i,CIRCUIT).ckpt after every \
           round (atomic write-then-rename). Combine with $(b,--resume) to \
           continue a killed run. $(b,--method) accals only.")

let resume_arg =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the checkpoint in $(b,--checkpoint) $(i,DIR). The \
           continued run is bit-identical to the uninterrupted one for any \
           $(b,--jobs) value; metric, bound and seed are taken from the \
           checkpoint. Starts fresh when no checkpoint exists yet.")

let run_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "run-deadline" ] ~docv:"SECS"
        ~doc:
          "Whole-run budget in seconds; on expiry the best circuit found so \
           far is reported with degraded = true.")

let max_memory_arg =
  Arg.(
    value
    & opt int 0
    & info [ "max-memory-mb" ] ~docv:"MB"
        ~doc:
          "Memory budget for the run, enforced at round boundaries: under \
           pressure the engine first drops its caches and buffer pools \
           (results stay bit-identical); if it is still over budget it \
           checkpoints and sheds the run (degraded = true, never the OOM \
           killer). 0 = unlimited.")

let round_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "round-deadline" ] ~docv:"SECS"
        ~doc:
          "Per-round budget in seconds; an overrunning round falls back \
           from multi-LAC to single-LAC selection.")

let validate_arg =
  Arg.(
    value
    & flag
    & info [ "validate" ]
        ~doc:
          "Check the network invariants (acyclicity, arity, fanin ranges) \
           at every round boundary, not only before checkpoints.")

let audit_every_arg =
  Arg.(
    value
    & opt int 0
    & info [ "audit-every" ] ~docv:"N"
        ~doc:
          "Shadow-audit cadence: every $(docv) rounds, re-derive the \
           round's signatures and error from scratch and compare them with \
           the incremental engine's state. A divergence is logged as an \
           incident and the signature database is rebuilt from the working \
           circuit; the run continues with the same result. A repeat \
           divergence demotes the run to single-LAC selection, and one \
           after that stops it (degraded = true). 0 (default) disables \
           scheduled audits.")

let certify_arg =
  Arg.(
    value
    & flag
    & info [ "certify" ]
        ~doc:
          "Re-measure the final circuit's error with an independent PRNG \
           stream (exhaustively when the input width permits) and stamp \
           the report certified. If the independent measurement violates \
           the bound, roll back to an earlier constraint-satisfying \
           circuit instead of emitting a violating result.")

let ckpt_keep_arg =
  Arg.(
    value
    & opt int 1
    & info [ "ckpt-keep" ] ~docv:"K"
        ~doc:
          "Keep the last $(docv) checkpoint generations \
           ($(i,NAME).ckpt, $(i,NAME).ckpt.1, ...). $(b,--resume) scans \
           newest-to-oldest and skips corrupt files, so a bit-flipped \
           latest snapshot falls back to its predecessor.")

let incident_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "incident-log" ] ~docv:"FILE"
        ~doc:
          "Append structured incident records (JSONL: audit divergences, \
           corrupt checkpoints skipped on resume, certification \
           violations, watchdog expiries) to $(docv). Defaults to \
           $(i,DIR)/incidents.jsonl when $(b,--checkpoint) $(i,DIR) is \
           given.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run's span tree \
           (run, rounds, engine phases, pool batches; workers on their own \
           lanes). Open in Perfetto (ui.perfetto.dev) or chrome://tracing. \
           Purely observational: synthesis outputs are bit-identical with \
           or without it.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry (counters, gauges, histograms: \
           candidates, estimator cache hits, resimulation work, checkpoint \
           bytes, GC samples, per-phase seconds) in Prometheus text \
           exposition format.")

let events_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-out" ] ~docv:"FILE"
        ~doc:
          "Stream structured run events (run_start, one object per round, \
           one per incident, run_end) to $(docv) as JSONL, flushed per \
           line — tail it to watch a long run.")

let progress_arg =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Render a live heartbeat (round, error, area, elapsed, ETA) to \
           stderr. Never touches stdout.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Run the sampling profiler for the whole synthesis and write \
           flamegraph-compatible folded stacks to $(docv) (plus a JSON \
           summary to $(docv).json). Like every telemetry sink, purely \
           observational: results are bit-identical with or without it.")

let profile_hz_arg =
  Arg.(
    value
    & opt int 97
    & info [ "profile-hz" ] ~docv:"HZ"
        ~doc:
          "Profiler sampling rate (default 97 — prime, so samples do not \
           phase-lock with periodic work).")

let profile_mode_arg =
  let parse s =
    match Profiler.mode_of_string s with
    | Some m -> `Ok m
    | None -> `Error (Printf.sprintf "unknown profile mode %s (cpu or wall)" s)
  in
  let print fmt m = Format.pp_print_string fmt (Profiler.mode_name m) in
  let mode_conv = (parse, print) in
  Arg.(
    value
    & opt mode_conv Profiler.Cpu
    & info [ "profile-mode" ] ~docv:"MODE"
        ~doc:
          "What a profiler tick means: $(b,cpu) samples while the process \
           burns CPU time (ITIMER_PROF), $(b,wall) in real time even when \
           blocked (ITIMER_REAL).")

let json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Emit the report as JSON on stdout instead of the text block \
           (with $(b,--verbose): inline the per-round trace). Notices that \
           normally print to stdout (resume, checkpoint scan) move to \
           stderr so stdout stays a single JSON document.")

let ckpt_tag = "accals-engine"

let synth_cmd =
  let doc = "Synthesize an approximate circuit under an error bound." in
  let run spec metric bound method_ samples seed jobs out verilog verbose trace
      ckpt_dir resume run_deadline round_deadline max_memory_mb validate
      audit_every certify ckpt_keep incident_log trace_out
      metrics_out events_out progress profile_out profile_hz profile_mode json =
    if resume && ckpt_dir = None then
      user_error "--resume requires --checkpoint DIR";
    if resume && method_ <> `Accals then
      user_error "--resume is only supported with --method accals";
    if ckpt_dir <> None && method_ <> `Accals then
      user_error "--checkpoint is only supported with --method accals";
    if audit_every < 0 then user_error "--audit-every must be >= 0";
    if ckpt_keep < 1 then user_error "--ckpt-keep must be >= 1";
    if max_memory_mb < 0 then user_error "--max-memory-mb must be >= 0";
    let jobs = resolve_jobs jobs in
    Graceful.install ();
    let net = load_circuit spec in
    let config =
      let base =
        {
          Config.default with
          samples;
          seed;
          jobs;
          run_deadline;
          round_deadline;
          max_memory_mb;
          validate_rounds = validate;
          audit_every;
          certify;
        }
      in
      Config.for_network ~base net
    in
    let ckpt_path =
      Option.map
        (fun dir ->
          Accals_resilience.Budget.Disk.ensure_dir dir;
          Filename.concat dir (Network.name net ^ ".ckpt"))
        ckpt_dir
    in
    (* The hook is always installed: saving the snapshot (when --checkpoint
       was given) comes first, then [Graceful.check] — so on SIGINT/SIGTERM
       the just-written snapshot is the final checkpoint and the run unwinds
       at the next round boundary with the documented 130/143 exit code. *)
    let checkpoint snap =
      Option.iter
        (fun path -> Checkpoint.save ~keep:ckpt_keep ~path ~tag:ckpt_tag snap)
        ckpt_path;
      Graceful.check ()
    in
    (* Telemetry is installed before anything runs so spans, metrics and
       events from the engine, pool workers and checkpoint writer all land
       on the same handle. Stays on the disabled no-op handle unless one of
       the telemetry flags was given. *)
    let tracer = if trace_out = None then None else Some (Tracer.create ()) in
    let progress_h = if progress then Some (Progress.create ()) else None in
    let events_oc = Option.map open_out events_out in
    if
      Option.is_some tracer || Option.is_some progress_h
      || Option.is_some events_oc || Option.is_some metrics_out
    then
      Telemetry.install
        (Telemetry.make ?tracer ?progress:progress_h ?events:events_oc ());
    let profiler =
      Option.map
        (fun _ -> Profiler.start ~hz:profile_hz ~mode:profile_mode ())
        profile_out
    in
    let write_profile () =
      match (profile_out, profiler) with
      | Some path, Some p ->
        Profiler.stop p;
        Profiler.write_folded p path;
        Json.write_file (path ^ ".json") (Profiler.summary p)
      | _ -> ()
    in
    let incident_log_path =
      match incident_log with
      | Some _ -> incident_log
      | None -> Option.map (fun dir -> Filename.concat dir "incidents.jsonl") ckpt_dir
    in
    (* Flush hooks for the graceful-shutdown path: run (newest-first) by
       the top-level [Interrupted] handler so partial telemetry survives an
       interrupt. The normal completion path below writes these itself. *)
    Graceful.on_shutdown "telemetry" (fun () -> Telemetry.reset ());
    Graceful.on_shutdown "events" (fun () -> Option.iter close_out events_oc);
    Graceful.on_shutdown "tracer" (fun () ->
        match (trace_out, tracer) with
        | Some path, Some t -> Tracer.write t path
        | _ -> ());
    Graceful.on_shutdown "profiler" (fun () -> write_profile ());
    (* In --json mode stdout is a single JSON document, so the resume /
       checkpoint-scan notices move to stderr. Plain mode keeps them on
       stdout (CI greps for them there). *)
    let notice fmt =
      Printf.ksprintf
        (fun s ->
          if json then (output_string stderr s; flush stderr)
          else print_string s)
        fmt
    in
    (* Incidents observed before the engine runs (corrupt checkpoints skipped
       during the resume scan), newest first. *)
    let resume_incidents = ref [] in
    let report =
      match method_ with
      | `Accals -> begin
        let snapshot =
          if resume then
            Option.bind ckpt_path (fun path ->
                Checkpoint.load_rotated ~path ~tag:ckpt_tag ~keep:ckpt_keep
                  ~on_corrupt:(fun ~path detail ->
                    notice "checkpoint   : skipping corrupt %s (%s)\n" path
                      detail;
                    resume_incidents :=
                      Incident.make ~round:0
                        (Incident.Checkpoint_corrupt { path; detail })
                      :: !resume_incidents)
                  ())
          else None
        in
        match snapshot with
        | Some (snap, file) ->
          notice "resumed      : %s at round %d\n"
            (Engine.snapshot_circuit snap)
            (Engine.snapshot_round snap);
          (try Engine.resume ~jobs ~checkpoint snap
           with Engine.Incompatible_snapshot { found; expected } ->
             Printf.eprintf
               "accals: checkpoint %s has snapshot version %d, this build \
                expects %d; remove it or resume with the build that wrote it\n"
               file found expected;
             exit failure_exit)
        | None ->
          if resume then
            notice "resumed      : no checkpoint yet, starting fresh\n";
          Engine.run ~config ~checkpoint net ~metric ~error_bound:bound
      end
      | `Seals -> Accals_baselines.Seals.run ~config net ~metric ~error_bound:bound
      | `Amosa ->
        (Accals_baselines.Amosa.run ~config net ~metric ~error_bound:bound)
          .Accals_baselines.Amosa.report
    in
    if json then
      (* Merge the pre-run resume incidents into the serialized report so
         the JSON document carries the same incident set the text block
         counts. *)
      print_string
        (Report_json.to_string ~rounds:verbose
           (match !resume_incidents with
            | [] -> report
            | pre ->
              {
                report with
                Engine.incidents = List.rev pre @ report.Engine.incidents;
              }))
    else begin
    Printf.printf "circuit      : %s\n" (Network.name net);
    Printf.printf "metric       : %s <= %g\n"
      (Metric.kind_to_string report.Engine.metric)
      report.Engine.error_bound;
    Printf.printf "error        : %.6f\n" report.Engine.error;
    Printf.printf "area ratio   : %.4f\n" report.Engine.area_ratio;
    Printf.printf "delay ratio  : %.4f\n" report.Engine.delay_ratio;
    Printf.printf "adp ratio    : %.4f\n" report.Engine.adp_ratio;
    Printf.printf "rounds       : %d\n" (List.length report.Engine.rounds);
    Printf.printf "runtime      : %.2fs\n" report.Engine.runtime_seconds;
    Printf.printf "evaluations  : %d\n" report.Engine.exact_evaluations;
    Printf.printf "degraded     : %b\n" report.Engine.degraded;
    let d = Degradation.of_incidents report.Engine.incidents in
    Printf.printf "reason       : %s\n"
      (match d.Degradation.reason with
       | Some r -> Degradation.reason_to_string r
       | None -> "-");
    Printf.printf "ladder       : %s\n" (Degradation.summary d);
    Printf.printf "audits       : %d\n" report.Engine.audits;
    Printf.printf "incidents    : %d\n"
      (List.length !resume_incidents + List.length report.Engine.incidents);
    (match report.Engine.certification with
     | None -> ()
     | Some o ->
       Printf.printf "certified    : %s (%s %.6f %s %g via %s%s)\n"
         (if o.Certify.certified then "yes" else "NO")
         (Metric.kind_to_string report.Engine.metric)
         o.Certify.measured
         (if o.Certify.certified then "<=" else ">")
         o.Certify.bound
         (Certify.method_to_string o.Certify.method_)
         (if o.Certify.rollback_steps > 0 then
            Printf.sprintf ", rollback %d" o.Certify.rollback_steps
          else ""));
    Printf.printf "trace        : %s\n" (Trace.summary report.Engine.rounds);
    Printf.printf "resim        : %s\n" (Trace.resim_summary report.Engine.rounds);
    Printf.printf "runtime pool : %s\n" (Trace.stats_summary report.Engine.stats);
    Printf.printf "phases       : %s\n" (Trace.phases_summary report.Engine.stats);
    if verbose then
      List.iter
        (fun r ->
          Printf.printf
            "  round %3d %s top=%d sol=%d indp=%d rand=%d applied=%d e %.5f -> %.5f (est %.5f)%s\n"
            r.Trace.index
            (match r.Trace.mode with Trace.Multi -> "multi " | Trace.Single -> "single")
            r.Trace.top_count r.Trace.sol_count r.Trace.indp_count
            r.Trace.rand_count r.Trace.applied r.Trace.error_before
            r.Trace.error_after r.Trace.estimated_error
            (if r.Trace.reverted then " [reverted]" else ""))
        report.Engine.rounds
    end;
    Option.iter (fun path -> Blif.write_file report.Engine.approximate path) out;
    Option.iter
      (fun path -> Accals_io.Verilog_writer.write_file report.Engine.approximate path)
      verilog;
    Option.iter (fun path -> Trace.write_csv report.Engine.rounds path) trace;
    Option.iter
      (fun path ->
        Incident.append_jsonl ~path
          (List.rev !resume_incidents @ report.Engine.incidents))
      incident_log_path;
    (match (trace_out, tracer) with
     | Some path, Some t -> Tracer.write t path
     | _ -> ());
    Option.iter
      (fun path ->
        let oc = open_out path in
        (try output_string oc (Metrics.to_prometheus report.Engine.metrics)
         with e -> close_out oc; raise e);
        close_out oc)
      metrics_out;
    Option.iter close_out events_oc;
    write_profile ();
    Telemetry.reset ();
    List.iter Graceful.remove_hook [ "telemetry"; "events"; "tracer"; "profiler" ]
  in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const run $ circuit_arg $ metric_arg $ bound_arg $ method_arg $ samples_arg
      $ seed_arg $ jobs_arg $ out_arg $ verilog_arg $ verbose_arg $ trace_arg
      $ checkpoint_arg $ resume_arg $ run_deadline_arg $ round_deadline_arg
      $ max_memory_arg $ validate_arg $ audit_every_arg
      $ certify_arg
      $ ckpt_keep_arg $ incident_log_arg $ trace_out_arg $ metrics_out_arg
      $ events_out_arg $ progress_arg $ profile_out_arg $ profile_hz_arg
      $ profile_mode_arg $ json_arg)

(* --- convert --- *)

let convert_cmd =
  let doc = "Convert a circuit to BLIF / Verilog / DOT / AIGER." in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write Graphviz DOT.")
  in
  let aiger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "aiger" ] ~docv:"FILE" ~doc:"Write ASCII AIGER (aag).")
  in
  let run spec out verilog dot aiger =
    let net = load_circuit spec in
    print_stats net;
    Option.iter (fun path -> Blif.write_file net path) out;
    Option.iter (fun path -> Accals_io.Verilog_writer.write_file net path) verilog;
    Option.iter (fun path -> Accals_io.Dot.write_file net path) dot;
    Option.iter
      (fun path ->
        Accals_aig.Aiger.write_file (Accals_aig.Aig.of_network net) path)
      aiger
  in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(const run $ circuit_arg $ out_arg $ verilog_arg $ dot_arg $ aiger_arg)

(* --- verify --- *)

let verify_cmd =
  let doc =
    "Exactly compare an approximate circuit against its golden reference \
     (exhaustive simulation, up to 24 inputs)."
  in
  let approx_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"APPROX" ~doc:"Approximate circuit (name or file).")
  in
  let run golden_spec approx_spec jobs json =
    let jobs = resolve_jobs jobs in
    let golden = load_circuit golden_spec in
    let approx = load_circuit approx_spec in
    let module Exhaustive = Accals_analysis.Exhaustive in
    let check pool = Exhaustive.compare_networks ?pool ~golden ~approx () in
    let r =
      if jobs > 1 then
        Accals_runtime.Pool.with_pool ~jobs (fun pool -> check (Some pool))
      else check None
    in
    (* JSON key and metric (its name labels the text line) with the text
       report's decimals. *)
    let fields =
      [
        ("error_rate", Metric.Error_rate, 8);
        ("mean_error_distance", Metric.Med, 6);
        ("normalized_mean_error_distance", Metric.Nmed, 8);
        ("mean_relative_error_distance", Metric.Mred, 8);
        ("worst_case_error", Metric.Wce, 1);
      ]
    in
    if json then
      print_string
        (Json.to_string ~pretty:true
           (Json.Obj
              (("golden", Json.String (Network.name golden))
               :: ("approx", Json.String (Network.name approx))
               :: ("vectors", Json.Int r.Exhaustive.vectors)
               :: List.map
                    (fun (key, kind, _) -> (key, Json.Float (Exhaustive.value r kind)))
                    fields))
         ^ "\n")
    else begin
      Printf.printf "%-13s: %d (exhaustive)\n" "vectors" r.Exhaustive.vectors;
      List.iter
        (fun (_, kind, decimals) ->
          Printf.printf "%-13s: %.*f\n" (Metric.kind_to_string kind) decimals
            (Exhaustive.value r kind))
        fields
    end
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ circuit_arg $ approx_arg $ jobs_arg $ json_arg)

(* --- sweep --- *)

let sweep_cmd =
  let doc = "Sweep error bounds and print the quality/error trade-off." in
  let bounds_arg =
    Arg.(
      value
      & opt (list float) [ 0.001; 0.005; 0.02; 0.05 ]
      & info [ "bounds" ] ~docv:"B1,B2,.." ~doc:"Error bounds to sweep.")
  in
  let run spec metric bounds jobs =
    let net = load_circuit spec in
    let config =
      Config.for_network
        ~base:{ Config.default with jobs = resolve_jobs jobs }
        net
    in
    let results = Accals.Pareto.sweep ~config net ~metric ~bounds in
    Printf.printf "%-12s %12s %12s %12s %8s\n" "bound" "error" "area ratio"
      "delay ratio" "rounds";
    List.iter
      (fun (bound, r) ->
        Printf.printf "%-12g %12.6f %12.4f %12.4f %8d\n" bound
          r.Engine.error r.Engine.area_ratio r.Engine.delay_ratio
          (List.length r.Engine.rounds))
      results
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ circuit_arg $ metric_arg $ bounds_arg $ jobs_arg)

(* --- serve / client --- *)

let socket_arg =
  Arg.(
    value
    & opt string "accals.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (or is reached at).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Also listen on (or connect to) TCP. $(docv) may be a bare port; \
           the host defaults to 127.0.0.1. Port 0 binds an ephemeral port \
           (the daemon logs the choice).")

let parse_hostport s =
  let split =
    match String.rindex_opt s ':' with
    | Some i ->
      ( String.sub s 0 i,
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> ("", int_of_string_opt s)
  in
  match split with
  | host, Some port when port >= 0 && port < 65536 ->
    ((if host = "" then "127.0.0.1" else host), port)
  | _ -> user_error "bad --tcp %S (expected HOST:PORT or PORT)" s

let serve_cmd =
  let doc =
    "Run the synthesis daemon: a job scheduler with a content-addressed \
     result cache behind a newline-delimited JSON protocol."
  in
  let max_concurrent_arg =
    Arg.(
      value
      & opt int 2
      & info [ "max-concurrent" ] ~docv:"N"
          ~doc:
            "Jobs running simultaneously; the $(b,--jobs) domain budget is \
             split evenly across them.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist finished results content-addressed by circuit digest \
             and request parameters; identical submissions (across \
             restarts too) are answered from $(docv) without re-running \
             the engine.")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Crash/shutdown state: the queue checkpoint re-admitted on \
             restart, plus final metrics, per-job event logs and Chrome \
             traces written during shutdown.")
  in
  let tcp_token_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp-token" ] ~docv:"SECRET"
          ~doc:
            "Shared secret TCP clients must present (as a \"token\" \
             request field, or $(b,client --token)) for privileged \
             requests: result, cancel, trace, events, shutdown. Without \
             it those are refused over TCP; the Unix socket is always \
             fully trusted.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Queued-jobs bound; past it new submissions are rejected with \
             code \"overloaded\" and a retry_after_ms hint. 0 = unlimited.")
  in
  let tenant_max_queued_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.tenant_max_queued
      & info [ "tenant-max-queued" ] ~docv:"N"
          ~doc:
            "Per-tenant queued-jobs quota (shed past it). 0 = unlimited.")
  in
  let tenant_max_running_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.tenant_max_running
      & info [ "tenant-max-running" ] ~docv:"N"
          ~doc:
            "Per-tenant running-slots cap; over-quota jobs wait queued \
             while other tenants run. 0 = unlimited.")
  in
  let deadline_grace_arg =
    Arg.(
      value
      & opt float Server.default_config.Server.deadline_grace
      & info [ "deadline-grace" ] ~docv:"SECS"
          ~doc:
            "How long past a job's deadline its worker may keep running \
             before the daemon abandons it and reuses the slot.")
  in
  let quarantine_threshold_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.quarantine_threshold
      & info [ "quarantine-threshold" ] ~docv:"N"
          ~doc:
            "Abnormal worker deaths for one job fingerprint before its \
             resubmissions are refused. 0 disables quarantine.")
  in
  let quarantine_cooldown_arg =
    Arg.(
      value
      & opt float Server.default_config.Server.quarantine_cooldown
      & info [ "quarantine-cooldown" ] ~docv:"SECS"
          ~doc:"How long a quarantined fingerprint is refused admission.")
  in
  let cache_max_mb_arg =
    Arg.(
      value
      & opt int 0
      & info [ "cache-max-mb" ] ~docv:"MB"
          ~doc:
            "Evict the on-disk result cache (corrupt entries first, then \
             least recently used) past this size. 0 = unlimited.")
  in
  let statedir_headroom_arg =
    Arg.(
      value
      & opt int 0
      & info [ "statedir-headroom-mb" ] ~docv:"MB"
          ~doc:
            "Free-space floor for the filesystem backing $(b,--state-dir) \
             and $(b,--cache-dir): under it the result cache is evicted \
             before anything new is stored. The reactive ENOSPC responses \
             (evict-and-retry on cache stores, evict-cache-then-retry on \
             the shutdown queue checkpoint) run regardless. 0 disables \
             the proactive check.")
  in
  let fd_reserve_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.fd_reserve
      & info [ "fd-reserve" ] ~docv:"N"
          ~doc:
            "File descriptors kept free for the daemon's own files: new \
             connections are refused with code \"resource_exhausted\" \
             (and a retry_after_ms hint) once accepting one more would \
             leave less than $(docv) under the soft RLIMIT_NOFILE.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No chatter on stderr.")
  in
  let profile_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-dir" ] ~docv:"DIR"
          ~doc:
            "Run the sampling profiler (CPU mode) for the daemon's \
             lifetime and write server.folded (flamegraph-compatible) \
             plus server.profile.json to $(docv) at shutdown.")
  in
  let serve_profile_hz_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.profile_hz
      & info [ "profile-hz" ] ~docv:"HZ" ~doc:"Profiler sampling rate.")
  in
  let run socket tcp tcp_token jobs max_concurrent max_queue tenant_max_queued
      tenant_max_running deadline_grace quarantine_threshold
      quarantine_cooldown cache_dir cache_max_mb state_dir samples
      max_memory_mb statedir_headroom_mb fd_reserve profile_dir profile_hz
      quiet =
    if max_concurrent < 1 then user_error "--max-concurrent must be >= 1";
    if deadline_grace < 0.0 then user_error "--deadline-grace must be >= 0";
    if cache_max_mb < 0 then user_error "--cache-max-mb must be >= 0";
    if max_memory_mb < 0 then user_error "--max-memory-mb must be >= 0";
    if statedir_headroom_mb < 0 then
      user_error "--statedir-headroom-mb must be >= 0";
    if fd_reserve < 0 then user_error "--fd-reserve must be >= 0";
    if profile_hz < 1 then user_error "--profile-hz must be >= 1";
    let server =
      Server.create
        {
          Server.socket;
          tcp = Option.map parse_hostport tcp;
          tcp_token;
          jobs;
          max_concurrent;
          max_queue;
          tenant_max_queued;
          tenant_max_running;
          deadline_grace;
          quarantine_threshold;
          quarantine_cooldown;
          cache_dir;
          cache_max_bytes = cache_max_mb * 1024 * 1024;
          state_dir;
          default_samples = samples;
          max_memory_mb;
          statedir_headroom_mb;
          fd_reserve;
          profile_dir;
          profile_hz;
          log = not quiet;
        }
    in
    (* SIGTERM/SIGINT: the handler only flips flags and wakes the select
       loop; [Server.run] then drains (checkpointing the queue, joining
       workers) and returns, and the process exits 130/143. *)
    Graceful.install ~on_signal:(fun _ -> Server.stop server) ();
    Server.run server;
    Graceful.run_hooks ();
    match Graceful.stop_requested () with
    | Some signal -> exit (Graceful.exit_code signal)
    | None -> ()
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ tcp_token_arg $ jobs_arg
      $ max_concurrent_arg $ max_queue_arg $ tenant_max_queued_arg
      $ tenant_max_running_arg $ deadline_grace_arg
      $ quarantine_threshold_arg $ quarantine_cooldown_arg $ cache_dir_arg
      $ cache_max_mb_arg $ state_dir_arg $ samples_arg $ max_memory_arg
      $ statedir_headroom_arg $ fd_reserve_arg $ profile_dir_arg
      $ serve_profile_hz_arg $ quiet_arg)

let client_cmd =
  let doc = "Talk to a running daemon (submit jobs, poll them, scrape metrics)." in
  let req_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQ"
          ~doc:
            "One of: submit, status, result, cancel, list, metrics, health, \
             trace, events, ping, shutdown.")
  in
  let operand_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"ARG"
          ~doc:"Circuit (for submit) or job id (status/result/cancel/trace/events).")
  in
  let client_bound_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "b"; "bound" ] ~docv:"BOUND" ~doc:"Error bound (submit).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECS"
          ~doc:"Per-job run budget; an over-budget job returns its best \
                circuit so far marked degraded (and is never cached).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Wall-clock deadline from submission; past it the job is \
             failed as deadline_exceeded (a hard fault, unlike --budget's \
             graceful degradation).")
  in
  let retry_flag =
    Arg.(
      value
      & flag
      & info [ "retry" ]
          ~doc:
            "Retry \"overloaded\"/\"quarantined\" rejections with jittered \
             exponential backoff, honoring the daemon's retry_after_ms \
             hint (bounded total wait).")
  in
  let priority_arg =
    Arg.(
      value
      & opt int 0
      & info [ "priority" ] ~docv:"P" ~doc:"Higher runs first (submit).")
  in
  let tenant_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Fair-share scheduling group (submit).")
  in
  let client_samples_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N"
          ~doc:"Simulation patterns; defaults to the daemon's setting.")
  in
  let wait_flag =
    Arg.(
      value
      & flag
      & info [ "wait" ]
          ~doc:"After submit, poll until the job finishes and print the \
                result response too.")
  in
  let token_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "token" ] ~docv:"SECRET"
          ~doc:
            "Shared secret sent with every request; required for \
             privileged requests over $(b,--tcp) when the daemon runs \
             with $(b,--tcp-token).")
  in
  let trace_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Trace-context id for submit (16 hex digits). Every span the \
             daemon records for the job is tagged with it, and the \
             $(b,trace) request returns one merged Chrome trace under it. \
             Minted automatically when omitted; the effective id is in \
             the submit response.")
  in
  let run socket tcp token req operand metric bound budget deadline priority
      tenant samples seed trace_id_opt wait_ retry =
    let need_operand what =
      match operand with
      | Some a -> a
      | None -> user_error "%s needs a %s operand" req what
    in
    let request =
      match req with
      | "submit" ->
        let spec = need_operand "circuit" in
        let bound =
          match bound with
          | Some b -> b
          | None -> user_error "submit requires --bound"
        in
        (* Every submission is traceable: honor --trace-id (validated
           here, so a typo fails before touching the daemon) or mint
           one. [client_ts] shares the daemon's monotonic epoch on the
           same machine, giving the merged trace a client-submit span. *)
        let trace_id =
          match trace_id_opt with
          | None -> Some (Trace_context.mint ())
          | Some raw -> (
            match Trace_context.normalize raw with
            | Some id -> Some id
            | None ->
              user_error "--trace-id must be %d hex digits, got %S"
                Trace_context.length raw)
        in
        let source =
          (* A registered name travels as a name; anything else is loaded
             locally (so errors surface here) and shipped as BLIF text. *)
          if Sys.file_exists spec then
            Sproto.Blif_text (Blif.to_string (load_circuit spec))
          else if List.mem_assoc spec Bench_suite.all then Sproto.Named spec
          else
            user_error
              "unknown circuit %s (not a file, not a registered benchmark)"
              spec
        in
        Sproto.Submit
          {
            Sproto.source;
            metric;
            bound;
            budget;
            deadline;
            priority;
            tenant;
            samples;
            seed;
            trace_id;
            client_ts = Some (Clock.now ());
          }
      | "status" -> Sproto.Status (need_operand "job id")
      | "result" -> Sproto.Result (need_operand "job id")
      | "cancel" -> Sproto.Cancel (need_operand "job id")
      | "trace" -> Sproto.Trace (need_operand "job id")
      | "events" -> Sproto.Events (need_operand "job id")
      | "list" -> Sproto.List
      | "metrics" -> Sproto.Metrics
      | "health" -> Sproto.Health
      | "ping" -> Sproto.Ping
      | "shutdown" -> Sproto.Shutdown
      | other ->
        user_error
          "unknown request %s (expected submit, status, result, cancel, \
           list, metrics, health, trace, events, ping or shutdown)"
          other
    in
    let c =
      try
        match tcp with
        | Some hp ->
          let host, port = parse_hostport hp in
          Client.connect_tcp ?token host port
        | None -> Client.connect_unix ?token socket
      with Unix.Unix_error (e, _, _) ->
        user_error "cannot connect to the daemon: %s" (Unix.error_message e)
    in
    let print_response resp =
      (* `metrics` prints the raw Prometheus exposition so the output can
         be scraped/diffed directly; everything else pretty-prints JSON. *)
      match (req, Option.bind (Json.member "metrics" resp) Json.string_opt) with
      | "metrics", Some text -> print_string text
      | _ -> print_string (Json.to_string ~pretty:true resp ^ "\n")
    in
    let fail_rpc msg =
      Printf.eprintf "accals: %s\n" msg;
      exit failure_exit
    in
    (* With --retry, shed responses are retried under the shared backoff
       policy; the daemon's retry_after_ms hint floors each delay.  Safe
       for submit because submissions are content-addressed (a retry
       coalesces or hits the cache, never duplicating work). *)
    (match
       if retry then Client.rpc_retry c request else Client.rpc c request
     with
     | Error msg -> fail_rpc msg
     | Ok resp ->
       print_response resp;
       if not (Client.ok resp) then exit failure_exit;
       if wait_ && req = "submit" then
         match Option.bind (Json.member "job" resp) Json.string_opt with
         | None -> fail_rpc "submit response missing job id"
         | Some job -> (
           match Client.wait c job with
           | Error msg -> fail_rpc msg
           | Ok r ->
             print_string (Json.to_string ~pretty:true r ^ "\n");
             if not (Client.ok r) then exit failure_exit));
    Client.close c
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ token_arg $ req_arg $ operand_arg
      $ metric_arg $ client_bound_arg $ budget_arg $ deadline_arg
      $ priority_arg $ tenant_arg $ client_samples_arg $ seed_arg
      $ trace_id_arg $ wait_flag $ retry_flag)

let () =
  let doc = "Approximate logic synthesis with multi-LAC selection (AccALS)." in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info failure_exit
        ~doc:
          "on run failure: a runtime fault exhausted its retries, a network \
           invariant was violated, or a checkpoint was corrupt or written \
           by an incompatible build.";
      Cmd.Exit.info usage_exit
        ~doc:
          "on usage errors: bad command line, unknown circuit, unreadable \
           or malformed input file.";
      Cmd.Exit.info internal_exit ~doc:"on unexpected internal errors.";
      Cmd.Exit.info 130
        ~doc:
          "when interrupted by SIGINT: telemetry sinks are flushed, the \
           final round checkpoint is kept (synth) or the job queue is \
           checkpointed (serve) before exiting.";
      Cmd.Exit.info 143 ~doc:"likewise for SIGTERM.";
    ]
  in
  let info = Cmd.info "accals" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        list_cmd; stats_cmd; synth_cmd; convert_cmd; verify_cmd; sweep_cmd;
        serve_cmd; client_cmd;
      ]
  in
  let fail code fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "accals: %s\n" msg;
        code)
      fmt
  in
  exit
    (match Cmd.eval_value ~catch:false group with
    | Ok (`Ok ()) -> 0
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> usage_exit
    | Error `Exn -> internal_exit (* unreachable with ~catch:false *)
    | exception Blif.Parse_error msg -> fail usage_exit "%s" msg
    | exception Accals_aig.Aiger.Parse_error msg -> fail usage_exit "%s" msg
    | exception Sys_error msg -> fail usage_exit "%s" msg
    | exception (Accals_runtime.Fan_out.Runtime_failure _ as e) ->
      fail failure_exit "%s" (Printexc.to_string e)
    | exception (Network.Invariant_violation _ as e) ->
      fail failure_exit "%s" (Printexc.to_string e)
    | exception Checkpoint.Corrupt msg ->
      fail failure_exit "corrupt checkpoint: %s" msg
    | exception Graceful.Interrupted signal ->
      Graceful.run_hooks ();
      fail (Graceful.exit_code signal) "interrupted, shut down gracefully"
    | exception Unix.Unix_error (err, fn, arg) ->
      fail failure_exit "%s: %s (%s)" fn (Unix.error_message err) arg
    | exception e ->
      Printf.eprintf "accals: internal error: %s\n%s" (Printexc.to_string e)
        (Printexc.get_backtrace ());
      internal_exit)
