(* The engine workloads: synthesis jobs run through [Engine.run], each
   result published to a result cache the way the daemon publishes it, and
   each job then repeated three times and answered from that cache. Only
   the syntheses make up a run's wall and CPU time; the repeats are timed
   on their own. *)

open Accals_network
module Config = Accals.Config
module Engine = Accals.Engine
module Trace = Accals.Trace
module Report_json = Accals.Report_json
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Cache = Accals_server.Cache
module Prng = Accals_bitvec.Prng
module Json = Accals_telemetry.Json

type job = {
  circuit : string;
  metric : Metric.kind;
  bound : float;
  samples : int;
}

let job ?(samples = 2048) metric bound circuit = { circuit; metric; bound; samples }

(* Every job runs at -j1, the paper's setting. *)
let jobs = 1

let config ?(seed = Config.default.seed) job net =
  Config.for_network
    ~base:
      {
        Config.default with
        seed;
        samples = job.samples;
        jobs;
      }
    net

(* Repeats of each job answered from the result cache: with one synthesis
   per job, three quarters of all jobs are cache hits, as in serve-mix. *)
let repeats = 3

(* Output signatures by a plain simulation of the whole network, so the
   check shares no code with the engine's signature database. *)
let output_sigs net patterns =
  let sigs = Sim.run net patterns ~order:(Structure.topo_order net) in
  Array.map (fun id -> sigs.(id)) (Network.outputs net)

let remeasure (config : Config.t) ~metric ~original ~approx =
  let patterns =
    Sim.for_network ~seed:config.seed ~count:config.samples
      ~exhaustive_limit:config.exhaustive_limit original
  in
  Metric.measure metric ~golden:(output_sigs original patterns)
    ~approx:(output_sigs approx patterns)

(* Everything that makes a synthesized result wrong, as reasons. *)
let problems ~bound ~remeasured ~reported ~degraded ~digest ~expected_digest =
  List.filter_map Fun.id
    [
      (if remeasured <> reported then
         Some (Printf.sprintf "re-measured error %.17g <> reported %.17g" remeasured reported)
       else None);
      (if reported > bound then Some (Printf.sprintf "error %.17g exceeds bound %g" reported bound)
       else None);
      (if degraded then Some "report degraded" else None);
      (match expected_digest with
       | Some d when d <> digest -> Some "repeat gave a different digest"
       | _ -> None);
    ]

type prepared = { job : job; net : Network.t; config : Config.t }

(* Every run synthesizes with the engine's default pattern seed, so all
   runs do the same synthesis work and only machine noise moves the
   timings. *)
let load jobs =
  List.map
    (fun job ->
      let net = Bench_suite.load job.circuit in
      { job; net; config = config job net })
    jobs

(* The benchmark seed orders the jobs. *)
let shuffle ~seed jobs =
  let a = Array.of_list jobs in
  Prng.shuffle (Prng.create seed) a;
  Array.to_list a

type record = {
  circuit : string;
  digest : string;
  error : float;
  area_ratio : float;
  adp_ratio : float;
  rounds : int;
}

let record_json r =
  Json.Obj
    [
      ("circuit", Json.String r.circuit);
      ("digest", Json.String r.digest);
      ("error", Json.Float r.error);
      ("area_ratio", Json.Float r.area_ratio);
      ("adp_ratio", Json.Float r.adp_ratio);
      ("rounds", Json.Int r.rounds);
    ]

type tally = { mutable attempted : int; mutable failures : string list }

let tally () = { attempted = 0; failures = [] }
let fail t what = t.failures <- what :: t.failures

let cache_key (p : prepared) ~digest =
  Cache.key ~digest ~metric:p.job.metric ~bound:p.job.bound
    ~samples:p.config.samples ~seed:p.config.seed

(* One synthesis. It starts on a collected heap, so it pays for no earlier
   job's garbage and the seeded job order cannot move its time, and it
   collects its own garbage before it returns. *)
let synthesize (p : prepared) () =
  let report =
    Engine.run ~config:p.config p.net ~metric:p.job.metric
      ~error_bound:p.job.bound
  in
  Gc.full_major ();
  report

(* Publish a result under its content address. Returns the BLIF. *)
let publish cache (p : prepared) report =
  let blif = Blif.to_string report.Engine.approximate in
  Cache.store cache
    {
      Cache.key = cache_key p ~digest:(Network.digest p.net);
      report = Report_json.to_json ~rounds:true report;
      blif;
    };
  blif

(* One repeat: answer the job from the cache by its content address. *)
let answer_from_cache cache (p : prepared) =
  Cache.find cache (cache_key p ~digest:(Network.digest p.net))

type pass = {
  times : ((string * int) * (float * float)) list;
      (** per (job, slot): wall and CPU seconds; slot 0 is the synthesis,
          slots 1.. the repeats answered from the cache *)
  heap_mb : float;  (** largest major heap seen after an operation *)
  records : record list;
}

(* One pass over every job. Only the calls a user waits for are timed; the
   output checks run outside the clock. [digests] holds each job's first
   digest in this run, so a repeat that differs counts as a failure. *)
let run_pass t cache digests prepared =
  let times = ref [] and heap = ref 0.0 in
  let timed (p : prepared) slot f =
    t.attempted <- t.attempted + 1;
    let v, w, c = Sample.timed f in
    heap := Float.max !heap (Sample.heap_mb ());
    times := ((p.job.circuit, slot), (w, c)) :: !times;
    v
  in
  let records =
    List.filter_map
      (fun (p : prepared) ->
        Gc.full_major ();
        match timed p 0 (synthesize p) with
        | exception e ->
          fail t (Printf.sprintf "%s: %s" p.job.circuit (Printexc.to_string e));
          None
        | report ->
          let blif = publish cache p report in
          let approx = report.Engine.approximate in
          let digest = Network.digest approx in
          let expected_digest = Hashtbl.find_opt digests p.job.circuit in
          if expected_digest = None then Hashtbl.replace digests p.job.circuit digest;
          let remeasured =
            remeasure p.config ~metric:p.job.metric ~original:p.net ~approx
          in
          (match
             problems ~bound:p.job.bound ~remeasured ~reported:report.Engine.error
               ~degraded:report.Engine.degraded ~digest ~expected_digest
           with
           | [] -> ()
           | ps -> fail t (p.job.circuit ^ ": " ^ String.concat "; " ps));
          for slot = 1 to repeats do
            match timed p slot (fun () -> answer_from_cache cache p) with
            | Some e when e.Cache.blif = blif -> ()
            | Some _ -> fail t (p.job.circuit ^ ": cached BLIF differs")
            | None -> fail t (p.job.circuit ^ ": cache miss on a repeat")
          done;
          Some
            {
              circuit = p.job.circuit;
              digest;
              error = report.Engine.error;
              area_ratio = report.Engine.area_ratio;
              adp_ratio = report.Engine.adp_ratio;
              rounds = List.length report.Engine.rounds;
            })
      prepared
  in
  { times = List.rev !times; heap_mb = !heap; records }
