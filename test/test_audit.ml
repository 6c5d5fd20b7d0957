(* lib/audit + its wiring: CRC-32, sealed/rotated checkpoints, fault-spec
   rejection, the degradation ladder, incident records, shadow audits
   (including the engine-level divergence fallback), certified reports, and
   mutation-based property tests for Network.validate. *)

open Accals_network
module Random_logic = Accals_circuits.Random_logic
module Crc32 = Accals_resilience.Crc32
module Checkpoint = Accals_resilience.Checkpoint
module Fault = Accals_resilience.Fault
module Ladder = Accals_audit.Ladder
module Incident = Accals_audit.Incident
module Shadow = Accals_audit.Shadow
module Certify = Accals_audit.Certify
module Engine = Accals.Engine
module Config = Accals.Config
module Trace = Accals.Trace
module Metric = Accals_metrics.Metric
module Evaluate = Accals_esterr.Evaluate
module Bitvec = Accals_bitvec.Bitvec
module Exhaustive = Accals_analysis.Exhaustive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- CRC-32 --- *)

let test_crc32_vectors () =
  (* The standard check value, plus a few fixed vectors (cross-checked
     against zlib's crc32). *)
  check_int "check value" 0xCBF43926 (Crc32.digest_string "123456789");
  check_int "empty" 0 (Crc32.digest_string "");
  check_int "single a" 0xE8B7BE43 (Crc32.digest_string "a");
  check_int "abc" 0x352441C2 (Crc32.digest_string "abc")

let test_crc32_streaming () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.digest_string s in
  let split =
    let c = Crc32.add_string Crc32.init (String.sub s 0 10) in
    let c = Crc32.add_string c (String.sub s 10 (String.length s - 10)) in
    Crc32.finish c
  in
  check_int "split digest = whole digest" whole split;
  let bytewise =
    Crc32.finish
      (String.fold_left (fun c ch -> Crc32.add_byte c (Char.code ch)) Crc32.init s)
  in
  check_int "bytewise digest = whole digest" whole bytewise;
  check_int "digest_bytes agrees" whole (Crc32.digest_bytes (Bytes.of_string s));
  (* add_int folds exactly the 8 little-endian bytes of the word. *)
  let x = 0x1122334455667788 in
  let le = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set le i (Char.chr ((x lsr (8 * i)) land 0xFF))
  done;
  check_int "add_int = 8 LE bytes"
    (Crc32.digest_bytes le)
    (Crc32.finish (Crc32.add_int Crc32.init x));
  check_str "to_hex is 8 lowercase digits" "cbf43926" (Crc32.to_hex 0xCBF43926);
  check_str "to_hex pads" "0000002a" (Crc32.to_hex 42)

(* --- Checkpoint v2: sealing, rotation, corruption fuzz --- *)

let temp_ckpt () = Filename.temp_file "accals_audit" ".ckpt"

let remove_generations path =
  for i = 0 to 8 do
    try Sys.remove (Checkpoint.rotated path i) with Sys_error _ -> ()
  done

let with_ckpt f =
  let path = temp_ckpt () in
  Fun.protect ~finally:(fun () -> remove_generations path) @@ fun () -> f path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_checkpoint_rotation () =
  with_ckpt @@ fun path ->
  List.iter (fun v -> Checkpoint.save ~keep:3 ~path ~tag:"t" v) [ 1; 2; 3; 4 ];
  check "newest on path" true (Sys.file_exists path);
  check "generation 1 exists" true (Sys.file_exists (Checkpoint.rotated path 1));
  check "generation 2 exists" true (Sys.file_exists (Checkpoint.rotated path 2));
  check "generation 3 dropped" true
    (not (Sys.file_exists (Checkpoint.rotated path 3)));
  check_int "path holds newest" 4
    (match Checkpoint.load ~path ~tag:"t" with Some v -> v | None -> -1);
  check_int "path.1 holds previous" 3
    (match Checkpoint.load ~path:(Checkpoint.rotated path 1) ~tag:"t" with
     | Some v -> v
     | None -> -1);
  match Checkpoint.load_rotated ~path ~tag:"t" ~keep:3 () with
  | Some (v, from) ->
    check_int "load_rotated picks newest" 4 v;
    check_str "from the primary file" path from
  | None -> Alcotest.fail "load_rotated found nothing"

let flip_byte path offset =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s offset (Char.chr (Char.code (Bytes.get s offset) lxor 0x01));
  write_file path (Bytes.to_string s)

let test_checkpoint_rotated_fallback () =
  with_ckpt @@ fun path ->
  List.iter (fun v -> Checkpoint.save ~keep:3 ~path ~tag:"t" v) [ 1; 2; 3 ];
  (* Bit-flip the newest payload: resume must fall back to generation 1 and
     report the corrupt file. *)
  flip_byte path (String.length (read_file path) - 1);
  let skipped = ref [] in
  (match
     Checkpoint.load_rotated
       ~on_corrupt:(fun ~path _ -> skipped := path :: !skipped)
       ~path ~tag:"t" ~keep:3 ()
   with
  | Some (v, from) ->
    check_int "fell back to the previous snapshot" 2 v;
    check_str "from generation 1" (Checkpoint.rotated path 1) from
  | None -> Alcotest.fail "no intact generation found");
  check "corrupt newest reported" true (!skipped = [ path ]);
  (* Corrupt every generation: scanning must raise, after reporting all. *)
  flip_byte (Checkpoint.rotated path 1) 0;
  flip_byte (Checkpoint.rotated path 2) 0;
  skipped := [];
  check "all corrupt -> Corrupt" true
    (match Checkpoint.load_rotated ~path ~tag:"t" ~keep:3 () with
    | exception Checkpoint.Corrupt _ -> true
    | _ -> false);
  remove_generations path;
  check "no files -> None" true
    (Checkpoint.load_rotated ~path ~tag:"t" ~keep:3 () = None)

(* Satellite: a truncated payload must always surface as Corrupt — never a
   decoded value, never a different exception. Truncate at every offset. *)
let test_checkpoint_truncation_fuzz () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~path ~tag:"fuzz" ([ 1; 2; 3 ], "hello", 3.14);
  let full = read_file path in
  for len = 0 to String.length full - 1 do
    write_file path (String.sub full 0 len);
    match Checkpoint.load ~path ~tag:"fuzz" with
    | exception Checkpoint.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "truncation at %d raised %s, not Corrupt" len
        (Printexc.to_string e)
    | Some _ -> Alcotest.failf "truncation at %d decoded a value" len
    | None -> Alcotest.failf "truncation at %d reported as missing file" len
  done

let test_checkpoint_bitflip_fuzz () =
  with_ckpt @@ fun path ->
  Checkpoint.save ~path ~tag:"fuzz" ([ 1; 2; 3 ], "hello", 3.14) ;
  let full = read_file path in
  for offset = 0 to String.length full - 1 do
    write_file path full;
    flip_byte path offset;
    match Checkpoint.load ~path ~tag:"fuzz" with
    | exception Checkpoint.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "bit flip at %d raised %s, not Corrupt" offset
        (Printexc.to_string e)
    | Some _ -> Alcotest.failf "bit flip at %d went undetected" offset
    | None -> Alcotest.failf "bit flip at %d reported as missing file" offset
  done

(* --- Satellite: malformed fault specs are rejected with a message --- *)

let test_fault_spec_rejection () =
  let rejected s =
    match Fault.parse s with
    | Error msg ->
      check (Printf.sprintf "%S error message non-empty" s) true (msg <> "")
    | Ok _ -> Alcotest.failf "malformed spec %S accepted" s
  in
  List.iter rejected
    [
      "seed:";                (* empty value *)
      "foo";                  (* not key:value, no seed *)
      "seed:abc";             (* non-integer *)
      "seed:1,every:-3";      (* negative cadence *)
      "seed:1,every:0";
      "seed:1,attempts:0";
      "seed:1,attempts:-1";
      "seed:1,stall:-0.5";    (* negative stall *)
      "seed:1,mode:explode";  (* unknown mode *)
      "seed:1,frobnicate:9";  (* unknown key *)
      "every:2";              (* missing seed *)
    ];
  (* The boundary cases stay accepted. *)
  check "seed:0 accepted" true
    (match Fault.parse "seed:0" with Ok _ -> true | Error _ -> false);
  check "negative seed accepted" true
    (match Fault.parse "seed:-7" with Ok _ -> true | Error _ -> false)

(* --- Degradation ladder --- *)

let test_ladder () =
  let l = Ladder.create () in
  check "starts incremental" true (Ladder.level l = Ladder.Incremental);
  check_str "summary at start" "incremental" (Ladder.summary l);
  (* Transient notes keep the level and are deduplicated per reason. *)
  check "first note recorded" true
    (Ladder.note l ~round:2 ~reason:Ladder.Audit_divergence);
  check "repeat note dropped" true
    (not (Ladder.note l ~round:3 ~reason:Ladder.Audit_divergence));
  check "note keeps the level" true (Ladder.level l = Ladder.Incremental);
  Ladder.descend l ~round:4 ~reason:Ladder.Audit_divergence;
  check "descended" true (Ladder.level l = Ladder.Single_lac);
  check_str "summary names the note and the descent"
    "incremental [audit_divergence@2] -> single-lac@4 (audit_divergence)"
    (Ladder.summary l);
  (* The ladder never climbs back up, and a repeat descent is a no-op. *)
  Ladder.descend l ~round:5 ~reason:Ladder.Resource_pressure;
  check "no repeat" true
    (Ladder.level l = Ladder.Single_lac && List.length (Ladder.events l) = 2);
  check "other reason still recorded" true
    (Ladder.note l ~round:7 ~reason:Ladder.Watchdog_run);
  let events = Ladder.events l in
  check_int "three events" 3 (List.length events);
  check "chronological" true
    (List.map (fun e -> e.Ladder.round) events = [ 2; 4; 7 ]);
  check "transient flags" true
    (List.map (fun e -> e.Ladder.transient) events = [ true; false; true ]);
  check "note records its level" true
    (List.map (fun e -> e.Ladder.level) events
    = [ Ladder.Incremental; Ladder.Single_lac; Ladder.Single_lac ]);
  (* A copy is independent of the original. *)
  let fresh = Ladder.create () in
  let c = Ladder.copy fresh in
  Ladder.descend c ~round:9 ~reason:Ladder.Watchdog_round;
  check "copy descended" true (Ladder.level c = Ladder.Single_lac);
  check "original untouched" true
    (Ladder.level fresh = Ladder.Incremental && Ladder.events fresh = [])

(* --- Incident records --- *)

let test_incident_json () =
  let div =
    Incident.make ~round:4
      (Incident.Audit_divergence
         {
           backend = "incremental";
           nodes = [ 3; 17 ];
           fp_reference = "deadbeef";
           fp_observed = "cafef00d";
           recorded_error = 0.125;
           reference_error = 0.25;
         })
  in
  let j = Incident.to_json div in
  check_str "kind name" "audit_divergence" (Incident.kind_name div);
  let contains sub =
    let n = String.length sub and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> check (Printf.sprintf "json has %s" sub) true (contains sub))
    [
      "\"round\": 4";
      "\"kind\": \"audit_divergence\"";
      "\"nodes\": [3, 17]";
      "\"fp_reference\": \"deadbeef\"";
      "\"fp_observed\": \"cafef00d\"";
    ];
  (* Strings are escaped; one JSON object per line in the log file. *)
  let corrupt =
    Incident.make ~round:0
      (Incident.Checkpoint_corrupt { path = "a\"b\\c\nd"; detail = "crc" })
  in
  let cj = Incident.to_json corrupt in
  check "quote escaped" true
    (let n = String.length cj in
     let rec go i = i + 4 <= n && (String.sub cj i 4 = "a\\\"b" || go (i + 1)) in
     go 0);
  check "no raw newline in json" true
    (not (String.contains cj '\n'));
  let log = Filename.temp_file "accals_audit" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
  @@ fun () ->
  Incident.append_jsonl ~path:log [ div; corrupt ];
  Incident.append_jsonl ~path:log
    [ Incident.make ~round:9 (Incident.Watchdog_expired { scope = "run" }) ];
  let lines = String.split_on_char '\n' (String.trim (read_file log)) in
  check_int "append accumulates lines" 3 (List.length lines);
  check_str "first line is the first incident" j (List.hd lines)

(* --- Shadow audits --- *)

let shadow_fixture seed =
  let net = Random_logic.make ~name:"shadow" ~inputs:6 ~outputs:4 ~gates:40 ~seed in
  let patterns = Sim.for_network ~exhaustive_limit:6 net in
  let golden = Evaluate.output_signatures net patterns in
  (net, patterns, golden)

let derive net patterns =
  let live = Structure.live_set net in
  let order = Structure.topo_order net in
  let sigs = Sim.run ~live net patterns ~order in
  (live, sigs)

let first_live_gate net live sigs =
  let n = Network.num_nodes net in
  let rec go id =
    if id >= n then Alcotest.fail "no live gate found"
    else if live.(id) && (not (Network.is_input net id))
            && Bitvec.length sigs.(id) > 0
    then id
    else go (id + 1)
  in
  go 0

let test_shadow_fingerprint () =
  let net, patterns, _ = shadow_fixture 3 in
  let live, sigs = derive net patterns in
  let live2, sigs2 = derive net patterns in
  let n = Network.num_nodes net in
  check_str "fingerprint is deterministic"
    (Shadow.fingerprint ~live ~sigs n)
    (Shadow.fingerprint ~live:live2 ~sigs:sigs2 n);
  let id = first_live_gate net live sigs in
  let fp_before = Shadow.fingerprint ~live ~sigs n in
  Bitvec.set sigs.(id) 0 (not (Bitvec.get sigs.(id) 0));
  check "one flipped bit changes the fingerprint" true
    (fp_before <> Shadow.fingerprint ~live ~sigs n)

let test_shadow_compare () =
  let net, patterns, golden = shadow_fixture 4 in
  let metric = Metric.Error_rate in
  check "clean state, no store" true
    (Shadow.compare ~net ~patterns ~golden ~metric ~recorded_error:0.0
       ~observed:None
    = Shadow.Clean);
  check "wrong recorded error is a divergence" true
    (match
       Shadow.compare ~net ~patterns ~golden ~metric ~recorded_error:0.5
         ~observed:None
     with
    | Shadow.Divergence d ->
      d.Shadow.recorded_error = 0.5 && d.Shadow.reference_error = 0.0
    | Shadow.Clean -> false);
  let live, sigs = derive net patterns in
  check "clean incremental store" true
    (Shadow.compare ~net ~patterns ~golden ~metric ~recorded_error:0.0
       ~observed:(Some (live, sigs))
    = Shadow.Clean);
  let id = first_live_gate net live sigs in
  Bitvec.set sigs.(id) 0 (not (Bitvec.get sigs.(id) 0));
  match
    Shadow.compare ~net ~patterns ~golden ~metric ~recorded_error:0.0
      ~observed:(Some (live, sigs))
  with
  | Shadow.Divergence d ->
    check "corrupted node named" true (List.mem id d.Shadow.nodes);
    check "fingerprints differ" true (d.Shadow.fp_reference <> d.Shadow.fp_observed)
  | Shadow.Clean -> Alcotest.fail "corrupted store not caught"

(* --- Engine-level divergence fallback --- *)

let small_config ?(samples = 512) ?(audit_every = 0) ?(certify = false)
    ?(incremental = true) net =
  Config.for_network
    ~base:
      {
        Config.default with
        samples;
        seed = 1;
        jobs = 1;
        incremental;
        audit_every;
        certify;
      }
    net

let round_key (r : Trace.round) =
  { r with Trace.resim_nodes = 0; resim_converged = 0; resim_recycled = 0 }

let decision_fingerprint (r : Engine.report) =
  ( r.Engine.error,
    r.Engine.area_ratio,
    r.Engine.delay_ratio,
    r.Engine.adp_ratio,
    List.map round_key r.Engine.rounds,
    r.Engine.exact_evaluations )

let with_selftest round f =
  Shadow.arm_selftest ~round;
  Fun.protect ~finally:Shadow.disarm_selftest f

let run_mtp8 ?checkpoint config net =
  Engine.run ~config ?checkpoint net ~metric:Metric.Error_rate
    ~error_bound:0.03

let test_engine_divergence_reattach () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let reference = run_mtp8 (small_config ~incremental:false net) net in
  let snapshots = ref [] in
  let diverged =
    with_selftest 1 (fun () ->
        run_mtp8 (small_config ~audit_every:1 net)
          ~checkpoint:(fun s -> snapshots := s :: !snapshots)
          net)
  in
  check "degraded" true diverged.Engine.degraded;
  check "reason is the audit" true
    (diverged.Engine.degraded_reason = Some Ladder.Audit_divergence);
  check "stayed multi-LAC on a fresh database" true
    (diverged.Engine.final_level = Ladder.Incremental);
  check "one divergence incident" true
    (List.exists
       (fun i ->
         match i.Incident.kind with
         | Incident.Audit_divergence { backend; _ } ->
           i.Incident.round = 1 && backend = "incremental"
         | _ -> false)
       diverged.Engine.incidents);
  check "ladder records one transient note at round 1" true
    (match diverged.Engine.ladder_events with
     | [ e ] ->
       e.Ladder.round = 1 && e.Ladder.level = Ladder.Incremental
       && e.Ladder.reason = Ladder.Audit_divergence && e.Ladder.transient
     | _ -> false);
  check_str "summary shows the note" "incremental [audit_divergence@1]"
    diverged.Engine.ladder_summary;
  (* The reattached database's counters restart from zero, and so do the
     marks they are read against. *)
  check "resim counters never negative" true
    (List.for_all
       (fun (r : Trace.round) ->
         r.Trace.resim_nodes >= 0 && r.Trace.resim_converged >= 0
         && r.Trace.resim_recycled >= 0)
       diverged.Engine.rounds);
  check "audit counted" true (diverged.Engine.audits >= 1);
  (* The injected corruption happens after the round committed, and the
     fresh database is built from the working circuit, so every decision —
     and the final circuit — matches the rebuild reference run. *)
  check "result identical to the rebuild reference" true
    (decision_fingerprint diverged = decision_fingerprint reference);
  (* The incident and the ladder are part of the snapshot: a run resumed
     after the divergence reports the same history without re-arming the
     self-test. *)
  match !snapshots with
  | [] -> Alcotest.fail "no snapshots emitted"
  | latest :: _ ->
    let resumed = Engine.resume latest in
    check "resumed run keeps the reason" true
      (resumed.Engine.degraded_reason = Some Ladder.Audit_divergence);
    check_str "resumed run keeps the ladder summary"
      diverged.Engine.ladder_summary resumed.Engine.ladder_summary;
    check_int "resumed run keeps the incidents"
      (List.length diverged.Engine.incidents)
      (List.length resumed.Engine.incidents);
    check "resumed result identical" true
      (decision_fingerprint resumed = decision_fingerprint diverged)

let test_engine_divergence_second_rung () =
  (* The first divergence is only noted; the ladder carries that note in
     the snapshot, so a divergence after a resume is a repeat and descends
     to single-LAC. *)
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let config = small_config ~audit_every:1 net in
  let round1 = ref None in
  ignore
    (with_selftest 1 (fun () ->
         run_mtp8 config net ~checkpoint:(fun s ->
             if Engine.snapshot_round s = 1 && !round1 = None then
               round1 := Some s)));
  let snap =
    match !round1 with
    | Some s -> s
    | None -> Alcotest.fail "no round-1 snapshot"
  in
  let resumed = with_selftest 2 (fun () -> Engine.resume snap) in
  check "descended to single-LAC" true
    (resumed.Engine.final_level = Ladder.Single_lac);
  check "descent at round 2 for the audit" true
    (List.exists
       (fun e ->
         e.Ladder.round = 2 && e.Ladder.level = Ladder.Single_lac
         && e.Ladder.reason = Ladder.Audit_divergence
         && not e.Ladder.transient)
       resumed.Engine.ladder_events);
  check_str "summary shows note then descent"
    "incremental [audit_divergence@1] -> single-lac@2 (audit_divergence)"
    resumed.Engine.ladder_summary;
  check "rounds after the descent are single-LAC" true
    (List.for_all
       (fun (r : Trace.round) -> r.Trace.index <= 2 || r.Trace.mode = Trace.Single)
       resumed.Engine.rounds);
  check "still within the bound" true (resumed.Engine.error <= 0.03)

let test_stale_snapshot_rejected () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let first = ref None in
  ignore
    (run_mtp8 (small_config net) net ~checkpoint:(fun s ->
         if !first = None then first := Some s));
  let snap =
    match !first with Some s -> s | None -> Alcotest.fail "no snapshot"
  in
  (* Forge a snapshot from an older build: [s_version] is field 0. *)
  let stale : Engine.snapshot = Obj.obj (Obj.dup (Obj.repr snap)) in
  Obj.set_field (Obj.repr stale) 0 (Obj.repr (Engine.snapshot_version - 1));
  match Engine.resume stale with
  | _ -> Alcotest.fail "stale snapshot resumed"
  | exception Engine.Incompatible_snapshot { found; expected } ->
    check_int "found" (Engine.snapshot_version - 1) found;
    check_int "expected" Engine.snapshot_version expected

(* --- Certified reports --- *)

let test_independent_seed () =
  check "differs from the run seed" true (Certify.independent_seed 1 <> 1);
  check "deterministic" true
    (Certify.independent_seed 42 = Certify.independent_seed 42);
  check "seed-sensitive" true
    (Certify.independent_seed 1 <> Certify.independent_seed 2)

let test_measure_exhaustive_and_sampled () =
  let golden = Random_logic.make ~name:"cert" ~inputs:8 ~outputs:4 ~gates:30 ~seed:5 in
  let approx = Network.copy golden in
  (* Stub out one live gate; any induced error is fine, the point is the
     agreement between [measure] and the exhaustive analyzer. *)
  let live = Structure.live_set approx in
  let id = ref (-1) in
  Array.iteri
    (fun i l -> if !id < 0 && l && not (Network.is_input approx i) then id := i)
    live;
  Network.replace approx !id Gate.(Const false) [||];
  let err, method_ =
    Certify.measure ~golden ~approx ~metric:Metric.Error_rate ~seed:1
      ~samples:256 ~exhaustive_limit:8
  in
  check "exhaustive over 2^8 vectors" true (method_ = Certify.Exhaustive 256);
  let exact = Exhaustive.compare_networks ~golden ~approx in
  check "agrees with the exhaustive analyzer" true
    (err = exact.Exhaustive.error_rate);
  let err2, method2 =
    Certify.measure ~golden ~approx ~metric:Metric.Error_rate ~seed:1
      ~samples:256 ~exhaustive_limit:4
  in
  check "sampled when the width exceeds the limit" true
    (method2 = Certify.Sampled 256);
  check "sampled error is a probability" true (err2 >= 0.0 && err2 <= 1.0)

let test_certify_with_rollback () =
  let mk name =
    let t = Network.create ~name () in
    let a = Network.add_input t "a" in
    let f = Network.add_node t Gate.Buf [| a |] in
    Network.set_outputs t [| ("y", f) |];
    t
  in
  let errors = [ ("newest", 0.5); ("middle", 0.05); ("fallback", 0.0) ] in
  let measure net =
    (List.assoc (Network.name net) errors, Certify.Sampled 64)
  in
  let candidates =
    List.map (fun (name, e) () -> (mk name, e)) errors
  in
  let violations = ref [] in
  let outcome, circuit, sampled =
    Certify.certify_with_rollback ~measure ~bound:0.1 ~candidates
      ~on_violation:(fun ~step ~measured -> violations := (step, measured) :: !violations)
  in
  check "rolled back one step" true (outcome.Certify.rollback_steps = 1);
  check "certified" true outcome.Certify.certified;
  check "measured is the accepted candidate's" true (outcome.Certify.measured = 0.05);
  check_str "accepted the middle candidate" "middle" (Network.name circuit);
  check "sampled error returned" true (sampled = 0.05);
  check "one violation reported" true (!violations = [ (0, 0.5) ]);
  (* Even the ultimate fallback failing is reported honestly. *)
  violations := [];
  let outcome2, circuit2, _ =
    Certify.certify_with_rollback ~measure ~bound:(-1.0) ~candidates
      ~on_violation:(fun ~step ~measured -> violations := (step, measured) :: !violations)
  in
  check "uncertified" true (not outcome2.Certify.certified);
  check_str "last candidate emitted" "fallback" (Network.name circuit2);
  check_int "every candidate rejected" 3 (List.length !violations);
  check "empty candidate list rejected" true
    (match
       Certify.certify_with_rollback ~measure ~bound:0.1 ~candidates:[]
         ~on_violation:(fun ~step:_ ~measured:_ -> ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_engine_certification () =
  let net = Accals_circuits.Bench_suite.load "mtp8" in
  let r =
    Engine.run ~config:(small_config ~certify:true net) net
      ~metric:Metric.Error_rate ~error_bound:0.05
  in
  match r.Engine.certification with
  | None -> Alcotest.fail "certify=true but no certification in the report"
  | Some o ->
    check "bound recorded" true (o.Certify.bound = 0.05);
    check "certified implies within bound" true
      ((not o.Certify.certified) || o.Certify.measured <= o.Certify.bound);
    (* Whatever was emitted satisfies the constraint on the loop's own
       sample set too. *)
    check "reported error within bound" true (r.Engine.error <= 0.05);
    let uncertified =
      Engine.run ~config:(small_config net) net ~metric:Metric.Error_rate
        ~error_bound:0.05
    in
    check "no certification without the flag" true
      (uncertified.Engine.certification = None)

(* Every feasible commit, multi-LAC rounds included, is a rollback
   candidate. On apex6 with 32 samples every round is multi-LAC and the
   independent 32-vector measurement rejects each committed circuit, so
   certification must try them all, newest first, before it falls back to
   the original. *)
let test_rollback_through_multi_lac_commits () =
  let net = Accals_circuits.Bench_suite.load "apex6" in
  let r =
    Engine.run ~config:(small_config ~samples:32 ~certify:true net) net
      ~metric:Metric.Error_rate ~error_bound:0.05
  in
  let rounds = r.Engine.rounds in
  let feasible =
    List.length
      (List.filter (fun (rd : Trace.round) -> rd.Trace.error_after <= 0.05) rounds)
  in
  check "every round multi-LAC" true
    (List.for_all (fun (rd : Trace.round) -> rd.Trace.mode = Trace.Multi) rounds);
  check "several feasible commits" true (feasible >= 2);
  match r.Engine.certification with
  | None -> Alcotest.fail "certify=true but no certification in the report"
  | Some o ->
    check "certified" true o.Certify.certified;
    check_int "each feasible commit rejected before the original" feasible
      o.Certify.rollback_steps

(* Audits re-derive state on the side and certification re-measures the
   final circuit; neither may change a synthesis decision. Each variant's
   trace, minus the resimulation counters, must equal the plain run's, and
   so must its error and area unless certification rolled the final
   circuit back. *)
let test_audit_certify_keep_decisions () =
  List.iter
    (fun name ->
      let net = Accals_circuits.Bench_suite.load name in
      let run ?audit_every ?certify () =
        Engine.run
          ~config:(small_config ~samples:2048 ?audit_every ?certify net)
          net ~metric:Metric.Error_rate ~error_bound:0.03
      in
      let baseline = run () in
      List.iter
        (fun (label, audit_every, certify) ->
          let r = run ~audit_every ~certify () in
          let what = Printf.sprintf "%s %s: " name label in
          check (what ^ "same trace") true
            (List.map round_key r.Engine.rounds
            = List.map round_key baseline.Engine.rounds);
          let rolled_back =
            match r.Engine.certification with
            | Some o -> o.Certify.rollback_steps > 0
            | None -> false
          in
          check (what ^ "same error and area unless rolled back") true
            (rolled_back
            || r.Engine.error = baseline.Engine.error
               && r.Engine.area_ratio = baseline.Engine.area_ratio))
        [
          ("audit-4", 4, false);
          ("audit-1", 1, false);
          ("certify", 0, true);
          ("audit-1+certify", 1, true);
        ])
    [ "mtp8"; "alu4"; "apex6" ]

(* --- Satellite: mutation-based property tests for Network.validate --- *)

let violation_reason f =
  match f () with
  | () -> None
  | exception Network.Invariant_violation { reason; _ } -> Some reason

let reason_contains sub reason =
  let n = String.length sub and m = String.length reason in
  let rec go i = i + n <= m && (String.sub reason i n = sub || go (i + 1)) in
  go 0

(* Each mutation injects exactly one violation class into a valid network
   (returning the reason substring validate must report), or None when the
   class does not apply to this particular network. *)
let mutations =
  [
    ( "arity",
      fun net ->
        let id = ref (-1) in
        for i = Network.num_nodes net - 1 downto 0 do
          if !id < 0 && not (Network.is_input net i) then id := i
        done;
        if !id < 0 then None
        else begin
          (* An n-ary And with a single fanin violates the arity table. *)
          let f = (Network.inputs net).(0) in
          Network.unsafe_set_def net !id Gate.And [| f |];
          Some "arity violation"
        end );
    ( "fanin range",
      fun net ->
        let id = ref (-1) in
        for i = Network.num_nodes net - 1 downto 0 do
          if !id < 0 && not (Network.is_input net i) then id := i
        done;
        if !id < 0 then None
        else begin
          Network.unsafe_set_def net !id Gate.Buf [| Network.num_nodes net + 5 |];
          Some "out of range"
        end );
    ( "self-loop",
      fun net ->
        let id = ref (-1) in
        for i = Network.num_nodes net - 1 downto 0 do
          if !id < 0 && not (Network.is_input net i) then id := i
        done;
        if !id < 0 then None
        else begin
          Network.unsafe_set_def net !id Gate.Buf [| !id |];
          Some "self-loop"
        end );
    ( "cycle",
      fun net ->
        (* Close a two-node loop: a gate [b] with a non-input fanin [f]
           gives the back edge f -> b. *)
        let found = ref None in
        for b = Network.num_nodes net - 1 downto 0 do
          if !found = None && not (Network.is_input net b) then
            Array.iter
              (fun f ->
                if !found = None && (not (Network.is_input net f)) && f <> b
                then found := Some (b, f))
              (Network.fanins net b)
        done;
        match !found with
        | None -> None
        | Some (b, f) ->
          Network.unsafe_set_def net f Gate.Buf [| b |];
          Some "cycle" );
    ( "PO driver",
      fun net ->
        (* A fresh top node becomes the output, then is truncated away:
           the output table now points past the allocated nodes. *)
        let out0 = (Network.outputs net).(0) in
        let top = Network.add_node net Gate.Buf [| out0 |] in
        Network.set_outputs net [| ("y", top) |];
        Network.truncate net top;
        Some "out of range" );
    ( "name table",
      fun net ->
        let pi = (Network.inputs net).(0) in
        if Network.num_nodes net < 2 then None
        else begin
          (* The input table still lists [pi], but its node is a gate now. *)
          let other = if pi = 0 then 1 else 0 in
          Network.unsafe_set_def net pi Gate.Buf [| other |];
          Some "not an Input node"
        end );
    ( "name table (orphan Input)",
      fun net ->
        let id = ref (-1) in
        for i = Network.num_nodes net - 1 downto 0 do
          if !id < 0 && not (Network.is_input net i) then id := i
        done;
        if !id < 0 then None
        else begin
          Network.unsafe_set_def net !id Gate.Input [||];
          Some "missing from the input table"
        end );
  ]

let prop_validate_catches_mutations =
  Test_util.qcheck_case ~count:40 "validate catches every mutation class"
    QCheck2.Gen.(int_range 0 5000)
    (fun seed ->
      List.for_all
        (fun (label, mutate) ->
          let net =
            Random_logic.make ~name:"mut" ~inputs:6 ~outputs:4 ~gates:30 ~seed
          in
          (match violation_reason (fun () -> Network.validate net) with
          | None -> ()
          | Some r -> Alcotest.failf "seed %d: fresh network invalid: %s" seed r);
          match mutate net with
          | None -> true
          | Some expected -> (
            match violation_reason (fun () -> Network.validate net) with
            | Some reason when reason_contains expected reason -> true
            | Some reason ->
              Alcotest.failf "seed %d: %s reported %S (wanted %S)" seed label
                reason expected
            | None ->
              Alcotest.failf "seed %d: mutation %s not caught" seed label))
        mutations)

let suite =
  [
    ( "audit crc32",
      [
        Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "streaming interfaces agree" `Quick test_crc32_streaming;
      ] );
    ( "audit checkpoints",
      [
        Alcotest.test_case "rotation keeps K generations" `Quick
          test_checkpoint_rotation;
        Alcotest.test_case "corrupt newest falls back" `Quick
          test_checkpoint_rotated_fallback;
        Alcotest.test_case "truncate at every offset" `Quick
          test_checkpoint_truncation_fuzz;
        Alcotest.test_case "bit flip at every offset" `Quick
          test_checkpoint_bitflip_fuzz;
      ] );
    ( "audit fault config",
      [ Alcotest.test_case "malformed specs rejected" `Quick test_fault_spec_rejection ] );
    ( "audit ladder",
      [ Alcotest.test_case "descents, notes, copies" `Quick test_ladder ] );
    ( "audit incidents",
      [ Alcotest.test_case "json encoding and log append" `Quick test_incident_json ] );
    ( "audit shadow",
      [
        Alcotest.test_case "fingerprint" `Quick test_shadow_fingerprint;
        Alcotest.test_case "compare verdicts" `Quick test_shadow_compare;
        Alcotest.test_case "engine reattaches after divergence" `Slow
          test_engine_divergence_reattach;
        Alcotest.test_case "repeat divergence descends" `Slow
          test_engine_divergence_second_rung;
        Alcotest.test_case "stale snapshot rejected" `Quick
          test_stale_snapshot_rejected;
      ] );
    ( "audit certification",
      [
        Alcotest.test_case "independent seed" `Quick test_independent_seed;
        Alcotest.test_case "exhaustive and sampled measurement" `Quick
          test_measure_exhaustive_and_sampled;
        Alcotest.test_case "rollback walks the candidates" `Quick
          test_certify_with_rollback;
        Alcotest.test_case "engine-level certification" `Slow
          test_engine_certification;
        Alcotest.test_case "rollback through multi-LAC commits" `Quick
          test_rollback_through_multi_lac_commits;
        Alcotest.test_case "audits and certification keep decisions" `Slow
          test_audit_certify_keep_decisions;
      ] );
    ( "audit validate properties",
      [ prop_validate_catches_mutations ] );
  ]
