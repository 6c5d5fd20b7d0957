(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 4 and EXPERIMENTS.md), plus the
   three runtime measurements that need a timer: the jobs sweep (speedup),
   telemetry overhead (telemetry) and profiler overhead (observe).

   Usage:
     dune exec bench/main.exe                  # everything, reduced scale
     dune exec bench/main.exe table2 fig7      # selected experiments
     dune exec bench/main.exe -- --full        # 3 seeds, more samples *)

open Accals_network
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Seals = Accals_baselines.Seals
module Amosa = Accals_baselines.Amosa
module Pool = Accals_runtime.Pool
module Fan_out = Accals_runtime.Fan_out
module Stats = Accals_runtime.Stats
module Telemetry = Accals_telemetry.Telemetry
module Tracer = Accals_telemetry.Tracer
module Profiler = Accals_telemetry.Profiler
module Clock = Accals_telemetry.Clock
module Json = Accals_telemetry.Json
module Report_json = Accals.Report_json

let full = ref false

let jobs = ref (Domain.recommended_domain_count ())

(* Per-synthesis wall-clock budget (--timeout). Wired into the engine's
   run-deadline watchdog: an overrunning circuit reports its best-so-far
   result with [degraded = true] instead of hanging the whole bench. *)
let timeout = ref None

(* One pool for the whole bench run: circuit-level sweeps fan out over it
   (each inner synthesis staying sequential), and it is reused batch after
   batch, so domain spawn cost is paid once. *)
let pool_cell = ref None

let pool () =
  match !pool_cell with
  | Some p -> p
  | None ->
    let p = Pool.create ~jobs:(max 1 !jobs) in
    pool_cell := Some p;
    p

let seeds () = if !full then [ 1; 2; 3 ] else [ 1 ]

let samples () = if !full then 4096 else 2048

(* Paper threshold sets (fractions, not percent). *)
let er_thresholds = [ 0.0003; 0.001; 0.005; 0.03; 0.05 ]
let nmed_thresholds = [ 0.0000153; 0.0000610; 0.00024414; 0.0019531 ]

let small_set =
  [ "alu4"; "c1908"; "c3540"; "c880"; "cla32"; "ksa32"; "mtp8"; "rca32"; "wal8" ]

let arith_set = Bench_suite.small_arithmetic
let epfl_set = [ "div"; "log2"; "sin"; "sqrt"; "square" ]
let lgsynt_set = [ "alu2"; "apex6"; "frg2"; "term1" ]

(* ---------- circuit and run caches ---------- *)

let circuit_cache : (string, Network.t) Hashtbl.t = Hashtbl.create 32

let circuit name =
  match Hashtbl.find_opt circuit_cache name with
  | Some c -> c
  | None ->
    let c = Bench_suite.load name in
    Hashtbl.add circuit_cache name c;
    c

type outcome = {
  area : float;
  delay : float;
  adp : float;
  time : float;
  rounds : float;
  indp_ratio : float;
  error : float;
}

(* Runs that die (runtime fault, invariant violation) are skipped rather
   than aborting the bench: they contribute an all-NaN outcome that
   [average] filters out, and are listed in the end-of-run summary.
   Degraded (timed-out) runs keep their partial numbers but are listed
   too. The list is mutex-guarded because [prefetch] records incidents
   from pool workers. *)
let incidents : (string * string) list ref = ref []
let incidents_mutex = Mutex.create ()

let note_incident key reason =
  Mutex.protect incidents_mutex (fun () ->
      incidents := (key, reason) :: !incidents)

let skip_outcome =
  {
    area = nan;
    delay = nan;
    adp = nan;
    time = nan;
    rounds = nan;
    indp_ratio = nan;
    error = nan;
  }

let is_skip o = Float.is_nan o.area

let outcome_of_report (r : Engine.report) =
  {
    area = r.Engine.area_ratio;
    delay = r.Engine.delay_ratio;
    adp = r.Engine.adp_ratio;
    time = r.Engine.runtime_seconds;
    rounds = float_of_int (List.length r.Engine.rounds);
    indp_ratio = Trace.indp_ratio r.Engine.rounds;
    error = r.Engine.error;
  }

let average outcomes =
  let outcomes = List.filter (fun o -> not (is_skip o)) outcomes in
  if outcomes = [] then skip_outcome
  else
  let n = float_of_int (List.length outcomes) in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes /. n in
  {
    area = sum (fun o -> o.area);
    delay = sum (fun o -> o.delay);
    adp = sum (fun o -> o.adp);
    time = sum (fun o -> o.time);
    rounds = sum (fun o -> o.rounds);
    indp_ratio = sum (fun o -> o.indp_ratio);
    error = sum (fun o -> o.error);
  }

let run_cache : (string, outcome) Hashtbl.t = Hashtbl.create 64

let config_for net seed =
  Config.for_network
    ~base:
      { Config.default with seed; samples = samples (); run_deadline = !timeout }
    net

let run_one method_ name metric bound seed =
  let net = circuit name in
  let config = config_for net seed in
  let key =
    Printf.sprintf "%s/%s/%s/%g/seed%d"
      (match method_ with `Accals -> "accals" | `Seals -> "seals")
      name
      (Metric.kind_to_string metric)
      bound seed
  in
  match
    match method_ with
    | `Accals -> Engine.run ~config net ~metric ~error_bound:bound
    | `Seals -> Seals.run ~config net ~metric ~error_bound:bound
  with
  | report ->
    if report.Engine.degraded then
      note_incident key "degraded: run deadline expired, partial result kept";
    outcome_of_report report
  | exception ((Fan_out.Runtime_failure _ | Network.Invariant_violation _) as e)
    ->
    note_incident key (Printexc.to_string e);
    skip_outcome

let key_of method_ name metric bound =
  let tag = match method_ with `Accals -> "accals" | `Seals -> "seals" in
  Printf.sprintf "%s/%s/%s/%g/%b" tag name (Metric.kind_to_string metric)
    bound !full

let run method_ name metric bound =
  let key = key_of method_ name metric bound in
  match Hashtbl.find_opt run_cache key with
  | Some o -> o
  | None ->
    let o = average (List.map (run_one method_ name metric bound) (seeds ())) in
    Hashtbl.add run_cache key o;
    o

(* Fill [run_cache] for every spec before a table prints.  With jobs > 1 the
   independent synthesis runs fan out over the pool; circuits are loaded
   into [circuit_cache] sequentially first so workers only ever read the
   table.  Each inner run keeps jobs = 1, so the printed numbers are
   identical to a sequential bench run. *)
let prefetch specs =
  let missing =
    List.filter
      (fun (m, n, metric, b) -> not (Hashtbl.mem run_cache (key_of m n metric b)))
      (List.sort_uniq compare specs)
  in
  match missing with
  | [] -> ()
  | _ when !jobs <= 1 -> ()
  | missing ->
    List.iter (fun (_, n, _, _) -> ignore (circuit n)) missing;
    let outcomes =
      Fan_out.map_list ~label:"bench.synthesis" (pool ())
        ~f:(fun (m, n, metric, b) ->
          average (List.map (run_one m n metric b) (seeds ())))
        missing
    in
    List.iter2
      (fun (m, n, metric, b) o -> Hashtbl.replace run_cache (key_of m n metric b) o)
      missing outcomes

let section title =
  Printf.printf "\n==================== %s ====================\n%!" title

let pct x = 100.0 *. x

(* ---------- Table I ---------- *)

let table1 () =
  section "Table I: benchmark circuits (#Nd = structurally hashed AIG nodes)";
  List.iter
    (fun cat ->
      Printf.printf "-- %s --\n" (Bench_suite.category_to_string cat);
      Printf.printf "%-8s %8s %8s %10s %8s\n" "Ckt" "#Nd" "depth" "Area" "Delay";
      List.iter
        (fun name ->
          let c = circuit name in
          let aig = Accals_aig.Aig.of_network c in
          Printf.printf "%-8s %8d %8d %10.1f %8.1f\n" name
            (Accals_aig.Aig.node_count aig)
            (Accals_aig.Aig.depth aig) (Cost.area c) (Cost.delay c))
        (Bench_suite.category_circuits cat))
    [ Bench_suite.Iscas_small; Bench_suite.Epfl; Bench_suite.Lgsynt91 ]

(* ---------- Fig. 4 ---------- *)

let fig4 () =
  section "Fig. 4: L_indp ratio on small arithmetic circuits";
  Printf.printf "%-8s %10s %10s %10s\n" "Ckt" "ER" "NMED" "MRED";
  let cases =
    [ (Metric.Error_rate, 0.05); (Metric.Nmed, 0.0019531); (Metric.Mred, 0.0019531) ]
  in
  prefetch
    (List.concat_map
       (fun name ->
         List.map (fun (metric, bound) -> (`Accals, name, metric, bound)) cases)
       arith_set);
  let totals = Array.make 3 0.0 in
  List.iter
    (fun name ->
      let ratios =
        List.map (fun (metric, bound) -> (run `Accals name metric bound).indp_ratio) cases
      in
      List.iteri (fun i r -> totals.(i) <- totals.(i) +. r) ratios;
      match ratios with
      | [ a; b; c ] -> Printf.printf "%-8s %10.2f %10.2f %10.2f\n" name a b c
      | _ -> assert false)
    arith_set;
  let n = float_of_int (List.length arith_set) in
  Printf.printf "%-8s %10.2f %10.2f %10.2f   (paper: averages all > 0.7)\n"
    "avg" (totals.(0) /. n) (totals.(1) /. n) (totals.(2) /. n)

(* ---------- Fig. 5 ---------- *)

let fig5 () =
  section "Fig. 5: avg ADP ratio and runtime vs ER threshold (small set)";
  Printf.printf "%-10s %12s %12s %12s %12s %9s\n" "ER thresh" "AccALS ADP"
    "SEALS ADP" "AccALS t(s)" "SEALS t(s)" "speedup";
  prefetch
    (List.concat_map
       (fun bound ->
         List.concat_map
           (fun c ->
             [ (`Accals, c, Metric.Error_rate, bound);
               (`Seals, c, Metric.Error_rate, bound) ])
           small_set)
       er_thresholds);
  List.iter
    (fun bound ->
      let acc =
        average (List.map (fun c -> run `Accals c Metric.Error_rate bound) small_set)
      in
      let se =
        average (List.map (fun c -> run `Seals c Metric.Error_rate bound) small_set)
      in
      Printf.printf "%9.2f%% %12.3f %12.3f %12.2f %12.2f %8.1fx\n" (pct bound)
        acc.adp se.adp acc.time se.time (se.time /. max 1e-6 acc.time))
    er_thresholds

(* ---------- Fig. 6 ---------- *)

let fig6 tag metric thresholds set =
  section
    (Printf.sprintf
       "Fig. 6%s: per-circuit ADP and runtime under %s (avg over %d thresholds)"
       tag (Metric.kind_to_string metric) (List.length thresholds));
  Printf.printf "%-8s %12s %12s %12s %12s %9s\n" "Ckt" "AccALS ADP" "SEALS ADP"
    "AccALS t(s)" "SEALS t(s)" "speedup";
  prefetch
    (List.concat_map
       (fun name ->
         List.concat_map
           (fun b -> [ (`Accals, name, metric, b); (`Seals, name, metric, b) ])
           thresholds)
       set);
  let acc_tot = ref [] and se_tot = ref [] in
  List.iter
    (fun name ->
      let acc = average (List.map (fun b -> run `Accals name metric b) thresholds) in
      let se = average (List.map (fun b -> run `Seals name metric b) thresholds) in
      acc_tot := acc :: !acc_tot;
      se_tot := se :: !se_tot;
      Printf.printf "%-8s %12.3f %12.3f %12.2f %12.2f %8.1fx\n" name acc.adp
        se.adp acc.time se.time (se.time /. max 1e-6 acc.time))
    set;
  let acc = average !acc_tot and se = average !se_tot in
  Printf.printf "%-8s %12.3f %12.3f %12.2f %12.2f %8.1fx\n" "avg" acc.adp se.adp
    acc.time se.time (se.time /. max 1e-6 acc.time)

let fig6a () = fig6 "(a)" Metric.Error_rate er_thresholds small_set
let fig6b () = fig6 "(b)" Metric.Nmed nmed_thresholds arith_set
let fig6c () = fig6 "(c)" Metric.Mred nmed_thresholds arith_set

(* ---------- Table II ---------- *)

let table2 () =
  section "Table II: large (scaled) EPFL circuits under ER <= 0.1%";
  Printf.printf "%-8s %12s %12s %12s %12s %10s %10s %9s\n" "Ckt" "AccALS area"
    "SEALS area" "AccALS dly" "SEALS dly" "AccALS(s)" "SEALS(s)" "speedup";
  prefetch
    (List.concat_map
       (fun name ->
         [ (`Accals, name, Metric.Error_rate, 0.001);
           (`Seals, name, Metric.Error_rate, 0.001) ])
       epfl_set);
  let acc_tot = ref [] and se_tot = ref [] in
  List.iter
    (fun name ->
      let acc = run `Accals name Metric.Error_rate 0.001 in
      let se = run `Seals name Metric.Error_rate 0.001 in
      acc_tot := acc :: !acc_tot;
      se_tot := se :: !se_tot;
      Printf.printf "%-8s %11.2f%% %11.2f%% %11.2f%% %11.2f%% %10.1f %10.1f %8.1fx\n"
        name (pct acc.area) (pct se.area) (pct acc.delay) (pct se.delay)
        acc.time se.time (se.time /. max 1e-6 acc.time))
    epfl_set;
  let acc = average !acc_tot and se = average !se_tot in
  Printf.printf "%-8s %11.2f%% %11.2f%% %11.2f%% %11.2f%% %10.1f %10.1f %8.1fx\n"
    "Avg" (pct acc.area) (pct se.area) (pct acc.delay) (pct se.delay) acc.time
    se.time (se.time /. max 1e-6 acc.time)

(* ---------- Fig. 7 and Table III ---------- *)

let fig7_bound = 0.30
let fig7_grid = [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.30 ]

type fig7_result = {
  accals_points : (float * float) list;  (* (error, area ratio) *)
  amosa_points : (float * float) list;
  accals_time : float;
  amosa_time : float;
}

let fig7_cache : (string, fig7_result) Hashtbl.t = Hashtbl.create 8

let fig7_skip = {
  accals_points = [];
  amosa_points = [];
  accals_time = 0.0;
  amosa_time = 0.0;
}

let fig7_run name =
  match Hashtbl.find_opt fig7_cache name with
  | Some r -> r
  | None ->
    try
    let net = circuit name in
    let config = config_for net 1 in
    (* One AccALS run per grid bound gives the curve; the max-bound run's
       time is the Table III "single run" figure. *)
    let accals_points =
      List.map
        (fun bound ->
          let report =
            Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:bound
          in
          (bound, report.Engine.area_ratio, report.Engine.runtime_seconds))
        fig7_grid
    in
    let accals_time =
      match List.rev accals_points with
      | (_, _, t) :: _ -> t
      | [] -> 0.0
    in
    let amosa =
      Amosa.run ~config net ~metric:Metric.Error_rate ~error_bound:fig7_bound
    in
    let r =
      {
        accals_points = List.map (fun (b, a, _) -> (b, a)) accals_points;
        amosa_points = amosa.Amosa.archive;
        accals_time;
        amosa_time = amosa.Amosa.report.Engine.runtime_seconds;
      }
    in
    Hashtbl.add fig7_cache name r;
    r
    with (Fan_out.Runtime_failure _ | Network.Invariant_violation _) as e ->
      note_incident (Printf.sprintf "fig7/%s" name) (Printexc.to_string e);
      Hashtbl.add fig7_cache name fig7_skip;
      fig7_skip

let best_at points threshold =
  List.fold_left
    (fun acc (e, a) -> if e <= threshold then min acc a else acc)
    1.0 points

let fig7 () =
  section "Fig. 7: area ratio vs ER, AccALS vs AMOSA (LGSynt91 set)";
  List.iter
    (fun name ->
      let r = fig7_run name in
      Printf.printf "%-8s %-8s" name "ER:";
      List.iter (fun t -> Printf.printf " %7.0f%%" (pct t)) fig7_grid;
      Printf.printf "\n%-8s %-8s" "" "AccALS:";
      List.iter
        (fun t -> Printf.printf " %7.3f" (best_at r.accals_points t))
        fig7_grid;
      Printf.printf "\n%-8s %-8s" "" "AMOSA:";
      List.iter
        (fun t -> Printf.printf " %7.3f" (best_at r.amosa_points t))
        fig7_grid;
      print_newline ())
    lgsynt_set

let table3 () =
  section "Table III: runtime (s) for the LGSynt91 circuits (single run)";
  Printf.printf "%-8s" "method";
  List.iter (fun name -> Printf.printf " %9s" name) lgsynt_set;
  Printf.printf " %9s\n" "average";
  let times f =
    let ts = List.map (fun name -> f (fig7_run name)) lgsynt_set in
    (ts, List.fold_left ( +. ) 0.0 ts /. float_of_int (List.length ts))
  in
  let amosa_ts, amosa_avg = times (fun r -> r.amosa_time) in
  let accals_ts, accals_avg = times (fun r -> r.accals_time) in
  Printf.printf "%-8s" "AMOSA";
  List.iter (fun t -> Printf.printf " %9.2f" t) amosa_ts;
  Printf.printf " %9.2f\n" amosa_avg;
  Printf.printf "%-8s" "AccALS";
  List.iter (fun t -> Printf.printf " %9.2f" t) accals_ts;
  Printf.printf " %9.2f\n" accals_avg;
  Printf.printf "speedup: %.1fx (paper: 13x)\n" (amosa_avg /. max 1e-6 accals_avg)

(* ---------- Ablation: AccALS design choices ---------- *)

let ablation () =
  section "Ablation: AccALS component contributions";
  let variants =
    [
      ("full", fun c -> c);
      ("no-MIS", fun c -> { c with Config.use_mis = false });
      ("no-L_rand", fun c -> { c with Config.use_random_comparison = false });
      ("no-improv-1", fun c -> { c with Config.use_improvement_1 = false });
      ("no-improv-2", fun c -> { c with Config.use_improvement_2 = false });
      ("approx-est", fun c -> { c with Config.exact_estimation = false });
    ]
  in
  let workloads =
    [
      ("mtp8", Metric.Error_rate, 0.05);
      ("cla32", Metric.Nmed, 0.0019531);
      ("sqrt", Metric.Error_rate, 0.001);
    ]
  in
  List.iter
    (fun (name, metric, bound) ->
      Printf.printf "-- %s under %s <= %g --\n" name
        (Metric.kind_to_string metric) bound;
      Printf.printf "%-12s %10s %10s %8s %9s %12s\n" "variant" "ADP" "error"
        "rounds" "time(s)" "L_indp ratio";
      List.iter
        (fun (label, tweak) ->
          let net = circuit name in
          let config = tweak (config_for net 1) in
          let r = Engine.run ~config net ~metric ~error_bound:bound in
          Printf.printf "%-12s %10.3f %10.5f %8d %9.2f %12.2f\n" label
            r.Engine.adp_ratio r.Engine.error
            (List.length r.Engine.rounds)
            r.Engine.runtime_seconds
            (Trace.indp_ratio r.Engine.rounds))
        variants)
    workloads

(* ---------- Sampling sensitivity (methodology check, not in the paper) ---------- *)

let sensitivity () =
  section "Sampling sensitivity: sampled vs exhaustive error (mtp8, ER <= 1%)";
  Printf.printf "%-8s %14s %16s %12s %10s\n" "samples" "sampled ER" "exhaustive ER"
    "area ratio" "rounds";
  let net = circuit "mtp8" in
  List.iter
    (fun samples ->
      let config =
        Config.for_network
          ~base:{ Config.default with Config.samples; exhaustive_limit = 10 }
          net
      in
      let r = Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.01 in
      let exact =
        Accals_analysis.Exhaustive.compare_networks ~golden:net
          ~approx:r.Engine.approximate ()
      in
      Printf.printf "%-8d %14.5f %16.5f %12.3f %10d\n" samples r.Engine.error
        exact.Accals_analysis.Exhaustive.error_rate r.Engine.area_ratio
        (List.length r.Engine.rounds))
    [ 256; 1024; 4096; 16384 ];
  Printf.printf
    "(the sampled estimate drives synthesis; the exhaustive value is the \
     ground truth a user would certify against)\n"

(* ---------- Runtime speedup: jobs=1 vs jobs=N, with JSON output ---------- *)

let speedup_json_file = "bench_speedup.json"

let speedup () =
  let name = if !full then "synth30k" else "synth10k" in
  let sweep_jobs = [ 1; 2; 4; 8 ] in
  let n_max = List.fold_left max 1 sweep_jobs in
  section
    (Printf.sprintf "Runtime speedup: jobs sweep %s on %s (JSON -> %s)"
       (String.concat "/" (List.map string_of_int sweep_jobs))
       name speedup_json_file);
  let metric = Metric.Error_rate and bound = 0.03 in
  (* A scale-point circuit (>= 10k nodes): small circuits measure pool
     coordination, not parallel work. Sample count is fixed — this is a
     runtime experiment, not a quality one. *)
  let net = circuit name in
  let speedup_samples = 1024 and rounds = 2 in
  let config_with j =
    Config.for_network
      ~base:
        {
          Config.default with
          seed = 1;
          samples = speedup_samples;
          jobs = j;
          max_rounds = rounds;
        }
      net
  in
  let first_snapshot = ref None in
  let run_with j =
    let checkpoint s =
      (* Keep the earliest unfinished snapshot of the reference run for
         the resume-identity leg. *)
      if j = 1 then
        match !first_snapshot with
        | None when not (Engine.snapshot_finished s) -> first_snapshot := Some s
        | _ -> ()
    in
    Engine.run ~config:(config_with j) ~checkpoint net ~metric ~error_bound:bound
  in
  (* Each leg runs [repeats] times, legs interleaved so a slow spell of the
     machine spreads over all of them; a leg's time is its median run,
     which is also the run its phase times come from. *)
  let repeats = 3 in
  let all_runs =
    List.concat_map
      (fun _ -> List.map (fun j -> (j, run_with j)) sweep_jobs)
      (List.init repeats Fun.id)
  in
  let legs =
    List.map
      (fun j ->
        let runs =
          List.sort
            (fun (a : Engine.report) (b : Engine.report) ->
              Float.compare a.Engine.runtime_seconds b.Engine.runtime_seconds)
            (List.filter_map (fun (j', r) -> if j' = j then Some r else None) all_runs)
        in
        (j, (List.nth runs (repeats / 2), runs)))
      sweep_jobs
  in
  let median_run j = fst (List.assoc j legs) in
  let seq = median_run 1 in
  let par = median_run n_max in
  let fingerprint (r : Engine.report) =
    (Network.digest r.Engine.approximate, r.Engine.error, r.Engine.area_ratio,
     List.length r.Engine.rounds)
  in
  let reference = fingerprint seq in
  let deterministic =
    List.for_all (fun (_, r) -> fingerprint r = reference) all_runs
  in
  let resume_identical =
    match !first_snapshot with
    | None -> false
    | Some snap ->
      let resumed = Engine.resume ~jobs:(min 4 n_max) snap in
      fingerprint resumed = reference
  in
  let time_of j = (median_run j).Engine.runtime_seconds in
  let ratio t1 tn = t1 /. max 1e-9 tn in
  let sweep =
    List.map (fun j -> (j, time_of j, ratio (time_of 1) (time_of j))) sweep_jobs
  in
  let measured_j4 = ratio (time_of 1) (time_of 4) in
  (* CI regression floor: four fifths of the median -j4 speedup this
     machine measured, so the committed number is an honest local
     measurement with headroom for runner-to-runner noise. *)
  let floor_j4 = Float.round (measured_j4 *. 0.8 *. 100.0) /. 100.0 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "%-8s %12s %9s   %s\n" "jobs" "median (s)" "speedup" "runs (s)";
  List.iter
    (fun (j, t, sp) ->
      Printf.printf "%-8d %12.3f %8.2fx   %s\n" j t sp
        (String.concat " "
           (List.map
              (fun (r : Engine.report) -> Printf.sprintf "%.3f" r.Engine.runtime_seconds)
              (snd (List.assoc j legs)))))
    sweep;
  Printf.printf
    "deterministic=%b resume_identical=%b cores=%d (speedups above core \
     count cannot materialize)\n"
    deterministic resume_identical cores;
  let phases =
    List.map
      (fun (nm, t1) -> (nm, t1, Stats.phase_seconds par.Engine.stats nm))
      seq.Engine.stats.Stats.phases
  in
  Printf.printf "%-12s %12s %12s %9s\n" "phase" "jobs=1 (s)"
    (Printf.sprintf "jobs=%d (s)" n_max)
    "speedup";
  List.iter
    (fun (nm, t1, tn) ->
      Printf.printf "%-12s %12.3f %12.3f %8.2fx\n" nm t1 tn (ratio t1 tn))
    phases;
  let st = par.Engine.stats in
  Json.write_file speedup_json_file
    (Json.Obj
       [
         ("circuit", Json.String name);
         ("nodes", Json.Int (Network.num_nodes net));
         ("metric", Json.String (Metric.kind_to_string metric));
         ("bound", Json.Float bound);
         ("samples", Json.Int speedup_samples);
         ("max_rounds", Json.Int rounds);
         ("repeats", Json.Int repeats);
         ("jobs", Json.Int n_max);
         ("cores", Json.Int cores);
         ("deterministic", Json.Bool deterministic);
         ("resume_identical", Json.Bool resume_identical);
         ( "total",
           Json.Obj
             [
               ("jobs1_s", Json.Float (time_of 1));
               ("jobsN_s", Json.Float (time_of n_max));
               ("speedup", Json.Float (ratio (time_of 1) (time_of n_max)));
             ] );
         ("floor", Json.Obj [ ("jobs", Json.Int 4); ("speedup", Json.Float floor_j4) ]);
         ( "pool",
           Json.Obj
             [
               ("tasks", Json.Int st.Stats.tasks);
               ("batches", Json.Int st.Stats.batches);
               ("waits", Json.Int st.Stats.waits);
               ("steals", Json.Int st.Stats.steals);
               ("idle_s", Json.Float st.Stats.idle_seconds);
             ] );
         ( "sweep",
           Json.List
             (List.map
                (fun (j, t, sp) ->
                  Json.Obj
                    [
                      ("jobs", Json.Int j);
                      ("seconds", Json.Float t);
                      ( "runs_s",
                        Json.List
                          (List.map
                             (fun (r : Engine.report) ->
                               Json.Float r.Engine.runtime_seconds)
                             (snd (List.assoc j legs))) );
                      ("speedup", Json.Float sp);
                    ])
                sweep) );
         ( "phases",
           Json.List
             (List.map
                (fun (nm, t1, tn) ->
                  Json.Obj
                    [
                      ("name", Json.String nm);
                      ("jobs1_s", Json.Float t1);
                      ("jobsN_s", Json.Float tn);
                      ("speedup", Json.Float (ratio t1 tn));
                    ])
                phases) );
       ]);
  Printf.printf "wrote %s\n" speedup_json_file

(* ---------- Shared by the two overhead experiments ---------- *)

(* Wall and process-CPU seconds of one call. *)
let timed f =
  let w0 = Clock.now () and c0 = Clock.cpu () in
  let r = f () in
  (r, Clock.now () -. w0, Clock.cpu () -. c0)

(* Instruments observe and never steer: an instrumented run must take the
   same synthesis decisions as a plain one. *)
let same_decisions (a : Engine.report) (b : Engine.report) =
  a.Engine.rounds = b.Engine.rounds
  && a.Engine.error = b.Engine.error
  && a.Engine.area_ratio = b.Engine.area_ratio
  && a.Engine.exact_evaluations = b.Engine.exact_evaluations

(* ---------- Telemetry overhead: disabled vs tracer+metrics+events ---------- *)

let telemetry_json_file = "bench_telemetry.json"

let telemetry () =
  section
    (Printf.sprintf
       "Telemetry overhead: disabled vs tracer+metrics+events (JSON -> %s)"
       telemetry_json_file);
  let name = "mtp8" and metric = Metric.Error_rate and bound = 0.03 in
  let net = circuit name in
  let config = config_for net 1 in
  let go () = Engine.run ~config net ~metric ~error_bound:bound in
  (* Warm-up so allocator and circuit caches are hot before timing. *)
  ignore (go ());
  (* Two disabled runs: their spread is the run-to-run noise floor that
     the enabled overhead is read against. *)
  Telemetry.reset ();
  let dis1, t_dis1, _ = timed go in
  let dis2, t_dis2, _ = timed go in
  (* One fully-enabled run: span tracer + events stream + the metrics
     registry the engine always fills. *)
  let tracer = Tracer.create () in
  let events_path = Filename.temp_file "accals_bench_events" ".jsonl" in
  let events = open_out events_path in
  Telemetry.install (Telemetry.make ~tracer ~events ());
  let en, t_en, _ = timed go in
  Telemetry.reset ();
  close_out events;
  let event_lines =
    let ic = open_in events_path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  Sys.remove events_path;
  (* The determinism contract: telemetry observes and never steers, so the
     enabled run must reproduce the disabled runs decision for decision. *)
  let identical =
    dis1.Engine.rounds = dis2.Engine.rounds && same_decisions dis1 en
  in
  let t_dis = Float.min t_dis1 t_dis2 in
  let noise =
    Float.abs (t_dis1 -. t_dis2) /. Float.max 1e-9 t_dis
  in
  let overhead = (t_en -. t_dis) /. Float.max 1e-9 t_dis in
  (* Both runs are disabled, so this bounds the run-to-run spread only;
     it does not measure the disabled path against an uninstrumented
     build. Generous, because short runs on a loaded machine jitter. *)
  let disabled_within_noise = noise < 0.5 in
  Printf.printf "%-22s %10.3f s / %.3f s  (spread %.1f%%)\n" "disabled (2 runs)"
    t_dis1 t_dis2 (100.0 *. noise);
  Printf.printf "%-22s %10.3f s  (overhead %+.1f%% vs best disabled)\n"
    "enabled" t_en (100.0 *. overhead);
  Printf.printf "%-22s %d spans/instants, %d event lines\n" "recorded"
    (Tracer.event_count tracer) event_lines;
  Printf.printf "%-22s identical=%b  disabled_within_noise=%b\n" "checks"
    identical disabled_within_noise;
  Json.write_file telemetry_json_file
    (Json.Obj
       [
         ("circuit", Json.String name);
         ("metric", Json.String (Metric.kind_to_string metric));
         ("bound", Json.Float bound);
         ("samples", Json.Int (samples ()));
         ("identical", Json.Bool identical);
         ("disabled_s", Json.List [ Json.Float t_dis1; Json.Float t_dis2 ]);
         ("disabled_noise", Json.Float noise);
         ("disabled_within_noise", Json.Bool disabled_within_noise);
         ("enabled_s", Json.Float t_en);
         ("enabled_overhead", Json.Float overhead);
         ("trace_events", Json.Int (Tracer.event_count tracer));
         ("event_lines", Json.Int event_lines);
         (* Same serializer as the CLI's --json so the formats never drift. *)
         ("report", Report_json.to_json en);
       ]);
  Printf.printf "wrote %s\n" telemetry_json_file;
  if not identical then
    note_incident "telemetry/mtp8"
      "telemetry-enabled run diverged from disabled runs (determinism \
       contract violated)"

(* ---------- observe: profiler overhead gate ---------- *)

let observe_json_file = "bench_observe.json"

(* The sampling profiler is cheap and inert: a profiled synthesis run
   must reproduce the unprofiled run decision for decision, and its
   best-of-N overhead must stay under the 2% gate that CI enforces. *)
let observe () =
  section
    (Printf.sprintf
       "Observability: profiler overhead gate, bit-identity (JSON -> %s)"
       observe_json_file);
  let name = "mtp8" and metric = Metric.Error_rate and bound = 0.03 in
  let net = circuit name in
  (* A deliberately long kernel (8192 samples regardless of --full): the
     2% gate needs runs long enough that scheduler jitter sits well
     below the threshold being measured. *)
  let obs_samples = 8192 in
  let config =
    Config.for_network
      ~base:
        {
          Config.default with
          seed = 1;
          samples = obs_samples;
          run_deadline = !timeout;
        }
      net
  in
  let go () = Engine.run ~config net ~metric ~error_bound:bound in
  ignore (go ());
  (* Interleaved best-of-5 on each side: alternating plain and profiled
     repetitions spreads slow-machine noise evenly over both, and the
     gate compares fastest against fastest, which cancels most of the
     remaining scheduler jitter. *)
  let reps = 5 in
  Telemetry.reset ();
  let plain = ref None and profiled = ref None in
  let w_plain = ref infinity and w_profiled = ref infinity in
  let c_plain = ref infinity and c_profiled = ref infinity in
  let p = ref None in
  for _ = 1 to reps do
    let r, w, c = timed go in
    if !plain = None then plain := Some r;
    w_plain := Float.min !w_plain w;
    c_plain := Float.min !c_plain c;
    let prof = Profiler.start ~hz:97 ~mode:Profiler.Cpu () in
    let r, w, c = timed go in
    Profiler.stop prof;
    if !profiled = None then profiled := Some r;
    w_profiled := Float.min !w_profiled w;
    c_profiled := Float.min !c_profiled c;
    (* Keep the last profiler: its folded output covers one full run. *)
    p := Some prof
  done;
  let plain = Option.get !plain and profiled = Option.get !profiled in
  let p = Option.get !p in
  let identical = same_decisions plain profiled in
  (* The gate compares process-CPU time, not wall time: CPU time is the
     resource the profiler actually spends (signal handling, stack
     capture) and is barely disturbed by other tenants of a shared CI
     machine, where wall-clock jitter alone exceeds 2%. *)
  let overhead = (!c_profiled -. !c_plain) /. Float.max 1e-9 !c_plain in
  let gate = 0.02 in
  let within_gate = overhead < gate in
  let folded_rows =
    List.length
      (List.filter
         (fun r -> r <> "")
         (String.split_on_char '\n' (Profiler.folded p)))
  in
  Printf.printf "%-22s %10.3f s wall / %.3f s cpu (best of %d)\n" "unprofiled"
    !w_plain !c_plain reps;
  Printf.printf "%-22s %10.3f s wall / %.3f s cpu  (cpu overhead %+.2f%%, \
                 gate %.0f%%)\n"
    "profiled" !w_profiled !c_profiled (100.0 *. overhead) (100.0 *. gate);
  Printf.printf "%-22s %d ticks, %d samples, %d folded rows\n" "profiler"
    (Profiler.ticks p) (Profiler.sample_count p) folded_rows;
  Printf.printf "%-22s identical=%b within_gate=%b\n" "checks" identical
    within_gate;
  Json.write_file observe_json_file
    (Json.Obj
       [
         ("circuit", Json.String name);
         ("metric", Json.String (Metric.kind_to_string metric));
         ("bound", Json.Float bound);
         ("samples", Json.Int obs_samples);
         ("reps", Json.Int reps);
         ("unprofiled_wall_s", Json.Float !w_plain);
         ("profiled_wall_s", Json.Float !w_profiled);
         ("unprofiled_cpu_s", Json.Float !c_plain);
         ("profiled_cpu_s", Json.Float !c_profiled);
         ("overhead", Json.Float overhead);
         ("gate", Json.Float gate);
         ("within_gate", Json.Bool within_gate);
         ("identical", Json.Bool identical);
         ("profiler_ticks", Json.Int (Profiler.ticks p));
         ("profiler_samples", Json.Int (Profiler.sample_count p));
         ("folded_rows", Json.Int folded_rows);
         ("profiler_summary", Profiler.summary p);
       ]);
  Printf.printf "wrote %s\n" observe_json_file;
  if not identical then
    note_incident "observe/mtp8"
      "profiled run diverged from unprofiled run (determinism contract \
       violated)"

(* ---------- driver ---------- *)

let experiments =
  [
    ("table1", table1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("table2", table2);
    ("fig7", fig7);
    ("table3", table3);
    ("ablation", ablation);
    ("sensitivity", sensitivity);
    ("speedup", speedup);
    ("telemetry", telemetry);
    ("observe", observe);
  ]

(* With --trace-dir, every experiment runs under its own span tracer and
   leaves DIR/<experiment>.json behind — open any of them in Perfetto to
   see where a slow table spends its time. *)
let trace_dir = ref None

let run_experiment name =
  let f = List.assoc name experiments in
  match !trace_dir with
  | None -> f ()
  | Some dir ->
    let tracer = Tracer.create () in
    Telemetry.install (Telemetry.make ~tracer ());
    Fun.protect
      ~finally:(fun () ->
        Telemetry.reset ();
        Tracer.write tracer (Filename.concat dir (name ^ ".json")))
      (fun () -> Telemetry.with_span ~cat:"bench" name f)

let usage () =
  Printf.eprintf "experiments: %s\n" (String.concat " " (List.map fst experiments));
  Printf.eprintf
    "flags: --full    -j/--jobs N (worker domains, default %d)    --timeout \
     SECS (per-synthesis budget; overrunning circuits keep partial results)    \
     --trace-dir DIR (write DIR/<experiment>.json Chrome traces)\n"
    (Domain.recommended_domain_count ());
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let rec parse acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse acc rest
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %s\n" n;
        usage ())
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "-j expects an argument\n";
      usage ()
    | "--timeout" :: n :: rest -> (
      match float_of_string_opt n with
      | Some t when t > 0.0 ->
        timeout := Some t;
        parse acc rest
      | _ ->
        Printf.eprintf "--timeout expects a positive number of seconds, got %s\n"
          n;
        usage ())
    | [ "--timeout" ] ->
      Printf.eprintf "--timeout expects an argument\n";
      usage ()
    | "--trace-dir" :: dir :: rest ->
      trace_dir := Some dir;
      parse acc rest
    | [ "--trace-dir" ] ->
      Printf.eprintf "--trace-dir expects an argument\n";
      usage ()
    | "--full" :: rest ->
      full := true;
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let rest = parse [] args in
  let selected, unknown =
    List.partition (fun a -> List.mem_assoc a experiments) rest
  in
  (match unknown with
  | [] -> ()
  | other :: _ ->
    Printf.eprintf "unknown argument %s\n" other;
    usage ());
  let to_run = if selected = [] then List.map fst experiments else selected in
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    !trace_dir;
  let t0 = Unix.gettimeofday () in
  List.iter run_experiment to_run;
  (match !pool_cell with Some p -> Pool.shutdown p | None -> ());
  (match List.rev !incidents with
  | [] -> ()
  | inc ->
    Printf.printf "\nskipped or degraded runs (%d):\n" (List.length inc);
    List.iter (fun (key, reason) -> Printf.printf "  %-40s %s\n" key reason) inc);
  Printf.printf "\ntotal bench time: %.1fs%s (jobs=%d)\n"
    (Unix.gettimeofday () -. t0)
    (if !full then " (full mode)" else "")
    !jobs
