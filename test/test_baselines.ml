open Accals_network
module Engine = Accals.Engine
module Trace = Accals.Trace
module Metric = Accals_metrics.Metric
module Seals = Accals_baselines.Seals
module Amosa = Accals_baselines.Amosa
module Evaluate = Accals_esterr.Evaluate

let check = Alcotest.(check bool)

let fixture = lazy (Accals_circuits.Bench_suite.load "alu4")

let test_seals_respects_bound () =
  let net = Lazy.force fixture in
  let r = Seals.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "bound" true (r.Engine.error <= 0.03);
  check "area reduced or equal" true (r.Engine.area_ratio <= 1.0 +. 1e-9);
  Network.validate r.Engine.approximate

let test_seals_single_rounds () =
  let net = Lazy.force fixture in
  let r = Seals.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "all rounds single" true
    (List.for_all
       (fun round -> round.Trace.mode = Trace.Single && round.Trace.applied = 1)
       r.Engine.rounds)

let test_seals_deterministic () =
  let net = Lazy.force fixture in
  let a = Seals.run net ~metric:Metric.Error_rate ~error_bound:0.02 in
  let b = Seals.run net ~metric:Metric.Error_rate ~error_bound:0.02 in
  Alcotest.(check (float 0.0)) "same area" a.Engine.area_ratio b.Engine.area_ratio

let test_seals_verified_independently () =
  let net = Lazy.force fixture in
  let config = Accals.Config.for_network net in
  let patterns =
    Sim.for_network ~seed:config.Accals.Config.seed
      ~count:config.Accals.Config.samples
      ~exhaustive_limit:config.Accals.Config.exhaustive_limit net
  in
  let r = Seals.run ~config ~patterns net ~metric:Metric.Nmed ~error_bound:0.002 in
  let golden = Evaluate.output_signatures net patterns in
  let e = Evaluate.actual_error r.Engine.approximate patterns ~golden Metric.Nmed in
  Alcotest.(check (float 1e-12)) "error matches" r.Engine.error e

let test_accals_not_slower_than_seals_rounds () =
  (* The whole point: AccALS needs no more rounds than SEALS. *)
  let net = Accals_circuits.Bench_suite.load "c880" in
  let acc = Engine.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  let seals = Seals.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "fewer or equal rounds" true
    (List.length acc.Engine.rounds <= List.length seals.Engine.rounds)

let test_amosa_respects_bound () =
  let net = Lazy.force fixture in
  let r = Amosa.run net ~metric:Metric.Error_rate ~error_bound:0.03 in
  check "bound" true (r.Amosa.report.Engine.error <= 0.03);
  Network.validate r.Amosa.report.Engine.approximate

let test_amosa_archive_pareto () =
  let net = Lazy.force fixture in
  let r = Amosa.run net ~metric:Metric.Error_rate ~error_bound:0.05 in
  let archive = r.Amosa.archive in
  check "nonempty archive" true (archive <> []);
  (* No point dominates another. *)
  let dominates (e1, a1) (e2, a2) =
    e1 <= e2 && a1 <= a2 && (e1 < e2 || a1 < a2)
  in
  let rec pairwise = function
    | [] -> true
    | p :: rest ->
      List.for_all (fun q -> (not (dominates p q)) && not (dominates q p)) rest
      && pairwise rest
  in
  check "pareto front" true (pairwise archive)

let test_amosa_deterministic () =
  let net = Lazy.force fixture in
  let a = Amosa.run net ~metric:Metric.Error_rate ~error_bound:0.02 in
  let b = Amosa.run net ~metric:Metric.Error_rate ~error_bound:0.02 in
  Alcotest.(check (float 0.0)) "same area"
    a.Amosa.report.Engine.area_ratio b.Amosa.report.Engine.area_ratio

(* Golden digests recorded from the stand-alone SEALS and AMOSA loops
   that the shared round loop replaced: the BLIF's SHA-256, the round
   count, and the SHA-256 of the per-round (applied, error_after) list. *)
let pin report =
  let rounds =
    String.concat ""
      (List.map
         (fun r -> Printf.sprintf "%d %h\n" r.Trace.applied r.Trace.error_after)
         report.Engine.rounds)
  in
  ( Sha256.hex_of_string (Accals_io.Blif.to_string report.Engine.approximate),
    List.length report.Engine.rounds,
    Sha256.hex_of_string rounds )

let check_pin name expected report =
  Alcotest.(check (triple string int string)) name expected (pin report)

let test_seals_pinned () =
  let load = Accals_circuits.Bench_suite.load in
  check_pin "alu4 ER 0.03"
    ( "9a3a518fe38fa55e65a5831d07288ae76091a9f1e351754eb0538f629f311878",
      20,
      "5bf2c16616fe0d958e54279ab2f4f11dc4846dd2bfc015e1da5f55a954d362cc" )
    (Seals.run (load "alu4") ~metric:Metric.Error_rate ~error_bound:0.03);
  check_pin "c880 ER 0.03"
    ( "79b1d2050f03e1c205ec89445f9050c88277569f98c4d540ab0b93db0d91096f",
      30,
      "8137237547a135914e2e754e0475a20d67ee35e9a501911d5e2805a1dd158933" )
    (Seals.run (load "c880") ~metric:Metric.Error_rate ~error_bound:0.03);
  check_pin "mtp8 NMED 0.002"
    ( "bdbca9a5b1c46e4a8cd9f09189064ab601bc14aa578cd1f7b0d045293be7ee1e",
      84,
      "fd708ef135362ec59d557f891ea3024aa19ee996bb05cd99c14c85919b615775" )
    (Seals.run (load "mtp8") ~metric:Metric.Nmed ~error_bound:0.002)

let test_amosa_pinned () =
  let r =
    Amosa.run (Lazy.force fixture) ~metric:Metric.Error_rate ~error_bound:0.03
  in
  check_pin "alu4 ER 0.03"
    ( "b528309a558e78cdfc029fdd49785475f2b8edcf4c6933825941869fd260efc8",
      3,
      "dcd82a64d29989ac14a9da8bca2c25d966f4c32dfc75ec84e85248211f79ce7c" )
    r.Amosa.report;
  Alcotest.(check string) "archive"
    "819cf50cc2ac35b3e59d42d9184f143c21f80215e09abc87ed3dfc79e59a1ab4"
    (Sha256.hex_of_string
       (String.concat ";"
          (List.map (fun (e, a) -> Printf.sprintf "%h,%h" e a) r.Amosa.archive)))

(* AMOSA probes run [Cleanup.sweep] inside a journal, a path the AccALS
   step never takes. The signature engine must match the rebuild backend
   there too: BLIF text, trace (minus the resimulation counters, which
   only the engine keeps) and error. *)
let test_amosa_incremental_identity () =
  List.iter
    (fun name ->
      let net = Accals_circuits.Bench_suite.load name in
      let run incremental =
        let config =
          Accals.Config.for_network
            ~base:{ Accals.Config.default with incremental }
            net
        in
        let r =
          (Amosa.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03)
            .Amosa.report
        in
        let strip round =
          { round with Trace.resim_nodes = 0; resim_converged = 0; resim_recycled = 0 }
        in
        ( Accals_io.Blif.to_string r.Engine.approximate,
          List.map strip r.Engine.rounds,
          r.Engine.error )
      in
      check (name ^ ": incremental = rebuild") true (run true = run false))
    [ "mtp8"; "alu4" ]

(* Run-level settings apply to every method, since all three run
   Engine's round loop. *)
let baselines =
  [
    ( "seals",
      fun ~config net ->
        Seals.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03 );
    ( "amosa",
      fun ~config net ->
        (Amosa.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03)
          .Amosa.report );
  ]

let test_baselines_run_deadline () =
  let net = Lazy.force fixture in
  let config =
    { (Accals.Config.for_network net) with run_deadline = Some 0.0 }
  in
  List.iter
    (fun (name, run) ->
      let r = run ~config net in
      check (name ^ " degraded") true r.Engine.degraded;
      check (name ^ " watchdog_run") true
        ((Accals_audit.Degradation.of_incidents r.Engine.incidents)
           .Accals_audit.Degradation.reason
        = Some Accals_audit.Degradation.Watchdog_run))
    baselines

let test_baselines_certify_and_audit () =
  let net = Lazy.force fixture in
  let config =
    { (Accals.Config.for_network net) with certify = true; audit_every = 1 }
  in
  List.iter
    (fun (name, run) ->
      let r = run ~config net in
      check (name ^ " certified") true
        (match r.Engine.certification with
         | Some o -> o.Accals_audit.Certify.certified
         | None -> false);
      check (name ^ " audited") true (r.Engine.audits > 0))
    baselines

let methods =
  ( "accals",
    fun ~config net ->
      Engine.run ~config net ~metric:Metric.Error_rate ~error_bound:0.03 )
  :: baselines

let wire () =
  Accals_io.Blif.parse_string
    ".model wire\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"

(* A gate-free circuit has zero area and delay: every method reports unit
   ratios instead of NaN. *)
let test_gate_free_ratios () =
  let net = wire () in
  let config = Accals.Config.for_network net in
  List.iter
    (fun (name, run) ->
      let r = run ~config net in
      Alcotest.(check (list (float 0.0)))
        (name ^ " ratios") [ 1.0; 1.0; 1.0 ]
        [ r.Engine.area_ratio; r.Engine.delay_ratio; r.Engine.adp_ratio ])
    methods

(* Every method runs under the engine.run span, so run_start names it. *)
let test_run_start_method () =
  let module Json = Accals_telemetry.Json in
  let module Telemetry = Accals_telemetry.Telemetry in
  let net = wire () in
  let config = Accals.Config.for_network net in
  List.iter
    (fun (name, run) ->
      let path = Filename.temp_file "accals_method" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Telemetry.reset (); Sys.remove path)
        (fun () ->
          let oc = open_out path in
          Telemetry.install (Telemetry.make ~events:oc ());
          ignore (run ~config net);
          Telemetry.reset ();
          close_out oc;
          let ic = open_in path in
          let first = Json.parse_exn (input_line ic) in
          close_in ic;
          Alcotest.(check (option string))
            (name ^ " run_start") (Some name)
            (Option.bind (Json.member "method" first) Json.string_opt)))
    methods

(* Snapshots do not record the step and resume with AccALS's, so only
   AccALS's runs can be checkpointed. *)
let test_checkpoint_needs_accals () =
  Alcotest.check_raises "rejected"
    (Invalid_argument "Engine.run: only the AccALS step can be checkpointed")
    (fun () ->
      ignore
        (Engine.run
           ~step:{ Engine.accals with name = "copy" }
           ~checkpoint:ignore (wire ()) ~metric:Metric.Error_rate
           ~error_bound:0.03))

let suite =
  [
    ( "seals",
      [
        Alcotest.test_case "respects bound" `Quick test_seals_respects_bound;
        Alcotest.test_case "single-LAC rounds" `Quick test_seals_single_rounds;
        Alcotest.test_case "deterministic" `Quick test_seals_deterministic;
        Alcotest.test_case "independently verified" `Quick test_seals_verified_independently;
        Alcotest.test_case "AccALS rounds <= SEALS rounds" `Quick
          test_accals_not_slower_than_seals_rounds;
        Alcotest.test_case "pinned digests" `Quick test_seals_pinned;
      ] );
    ( "amosa",
      [
        Alcotest.test_case "respects bound" `Quick test_amosa_respects_bound;
        Alcotest.test_case "archive is a pareto front" `Quick test_amosa_archive_pareto;
        Alcotest.test_case "deterministic" `Quick test_amosa_deterministic;
        Alcotest.test_case "pinned digests" `Quick test_amosa_pinned;
        Alcotest.test_case "incremental = rebuild" `Quick
          test_amosa_incremental_identity;
      ] );
    ( "baselines",
      [
        Alcotest.test_case "run deadline" `Quick test_baselines_run_deadline;
        Alcotest.test_case "certify and audit" `Quick
          test_baselines_certify_and_audit;
        Alcotest.test_case "gate-free ratios" `Quick test_gate_free_ratios;
        Alcotest.test_case "run_start names the method" `Quick
          test_run_start_method;
        Alcotest.test_case "checkpoint needs the AccALS step" `Quick
          test_checkpoint_needs_accals;
      ] );
  ]
