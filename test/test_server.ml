(* lib/server: circuit digests, hardened JSON parsing, the wire protocol,
   the result cache, the scheduling policy, graceful shutdown, and an
   end-to-end daemon round-trip checked against one-shot engine runs. *)

open Accals_network
module Engine = Accals.Engine
module Config = Accals.Config
module Metric = Accals_metrics.Metric
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Json = Accals_telemetry.Json
module Clock = Accals_telemetry.Clock
module Protocol = Accals_server.Protocol
module Cache = Accals_server.Cache
module Backoff = Accals_server.Backoff
module Scheduler = Accals_server.Scheduler
module Graceful = Accals_server.Graceful
module Server = Accals_server.Server
module Client = Accals_server.Client
module Fault = Accals_resilience.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* --- Network.digest --- *)

(* The same two-output function, assembled in different node orders and
   with an optional dead node and different names: the canonical digest
   must not see any of that. *)
let build_pair ~scrambled ~with_dead ~names =
  let t = Network.create ~name:(fst names) () in
  let a = Network.add_input t "a" in
  let b = Network.add_input t "b" in
  if scrambled then begin
    let o = Network.add_node t Gate.Or [| a; b |] in
    if with_dead then ignore (Network.add_node t Gate.Nand [| a; a |]);
    let n = Network.add_node t Gate.And [| a; b |] in
    let x = Network.add_node t Gate.Xor [| n; o |] in
    Network.set_outputs t [| (snd names, x); ("carry", n) |]
  end
  else begin
    let n = Network.add_node t Gate.And [| a; b |] in
    let o = Network.add_node t Gate.Or [| a; b |] in
    let x = Network.add_node t Gate.Xor [| n; o |] in
    Network.set_outputs t [| (snd names, x); ("carry", n) |]
  end;
  t

let test_digest_renumbering () =
  let d1 =
    Network.digest
      (build_pair ~scrambled:false ~with_dead:false ~names:("m1", "y"))
  in
  let d2 =
    Network.digest
      (build_pair ~scrambled:true ~with_dead:false ~names:("m2", "z"))
  in
  let d3 =
    Network.digest
      (build_pair ~scrambled:true ~with_dead:true ~names:("m3", "w"))
  in
  check_string "node order does not change the digest" d1 d2;
  check_string "dead nodes and names do not change the digest" d1 d3;
  (* A benchmark circuit keeps its digest when rebuilt node by node in
     reverse-DFS order — every internal id changes, the structure does
     not. *)
  let net = Bench_suite.load "mtp8" in
  let rebuilt = Network.create ~name:"rebuilt" () in
  let map = Hashtbl.create 97 in
  let input_names = Network.input_names net in
  Array.iteri
    (fun k i -> Hashtbl.replace map i (Network.add_input rebuilt input_names.(k)))
    (Network.inputs net);
  let rec clone i =
    match Hashtbl.find_opt map i with
    | Some j -> j
    | None ->
      let fis = Network.fanins net i in
      (* visit fanins right-to-left so sibling insertion order flips *)
      for k = Array.length fis - 1 downto 0 do
        ignore (clone fis.(k))
      done;
      let j =
        Network.add_node rebuilt (Network.op net i)
          (Array.map (fun f -> Hashtbl.find map f) fis)
      in
      Hashtbl.replace map i j;
      j
  in
  let outs = Network.outputs net in
  let names = Network.output_names net in
  (* clone outputs last-to-first: maximally different creation order *)
  for k = Array.length outs - 1 downto 0 do
    ignore (clone outs.(k))
  done;
  Network.set_outputs rebuilt
    (Array.mapi (fun k o -> (names.(k), Hashtbl.find map o)) outs);
  Network.validate rebuilt;
  check_string "benchmark digest survives a full renumbering"
    (Network.digest net) (Network.digest rebuilt)

let test_digest_sensitivity () =
  let base = build_pair ~scrambled:false ~with_dead:false ~names:("m", "y") in
  let d0 = Network.digest base in
  (* Single-gate edit: Or -> Nor. *)
  let edited = build_pair ~scrambled:false ~with_dead:false ~names:("m", "y") in
  let o_node =
    (* the Or node is the unique Or in the network *)
    let found = ref (-1) in
    for i = 0 to Network.num_nodes edited - 1 do
      if Network.op edited i = Gate.Or then found := i
    done;
    !found
  in
  Network.replace edited o_node Gate.Nor (Network.fanins edited o_node);
  check "single-gate edit changes the digest" true
    (d0 <> Network.digest edited);
  (* Positional input swap changes the function, so it must change the
     digest even though the graph shape is identical. *)
  let asym swap =
    let t = Network.create ~name:"asym" () in
    let i0 = Network.add_input t "a" in
    let i1 = Network.add_input t "b" in
    let x, y = if swap then (i1, i0) else (i0, i1) in
    let n = Network.add_node t Gate.Not [| y |] in
    let g = Network.add_node t Gate.And [| x; n |] in
    Network.set_outputs t [| ("y", g) |];
    Network.digest t
  in
  check "input declaration order is significant" true (asym false <> asym true);
  check "different circuits have different digests" true
    (Network.digest (Bench_suite.load "rca32")
    <> Network.digest (Bench_suite.load "mtp8"))

(* The digest keys a cache shared across tenants, so it must be
   collision-resistant against construction, not just chance: check the
   SHA-256 core against the FIPS 180-4 vectors, and that the digest is
   the full 256 bits (a truncation would reopen birthday attacks). *)
let test_digest_cryptographic () =
  check_string "sha256 of empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex_of_string "");
  check_string "sha256 of abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex_of_string "abc");
  check_string "sha256 two-block vector"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex_of_string
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (let t = Sha256.create () in
   for _ = 1 to 1_000_000 do
     Sha256.feed_byte t (Char.code 'a')
   done;
   check_string "sha256 of a million 'a' (incremental feeding)"
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
     (Sha256.hex t));
  let d = Network.digest (Bench_suite.load "rca32") in
  check_int "digest is 64 hex digits (full 256 bits)" 64 (String.length d);
  check "digest is lowercase hex" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) d)

(* [feed_int] stores a whole word when it fits the block and falls back
   to bytes when it straddles one; either way the stream must be exactly
   its 8 big-endian two's-complement bytes.  Every block fill 0..63 is
   reached, with values that exercise the sign extension. *)
let test_sha256_feed_int () =
  let values = [ 0; 1; -1; 0x1234_5678_9abc; min_int; max_int; -0x8000_0001 ] in
  for fill = 0 to 63 do
    List.iter
      (fun x ->
        let words = Sha256.create () and bytes = Sha256.create () in
        for i = 0 to fill - 1 do
          Sha256.feed_byte words i;
          Sha256.feed_byte bytes i
        done;
        Sha256.feed_int words x;
        let x64 = Int64.of_int x in
        for i = 0 to 7 do
          Sha256.feed_byte bytes
            (Int64.to_int (Int64.shift_right_logical x64 (56 - (8 * i))))
        done;
        (* A second word lands after the first at its own fill. *)
        Sha256.feed_int words (lnot x);
        Sha256.feed_string bytes
          (let b = Bytes.create 8 in
           Bytes.set_int64_be b 0 (Int64.of_int (lnot x));
           Bytes.to_string b);
        check_string
          (Printf.sprintf "feed_int %d at fill %d" x fill)
          (Sha256.hex bytes) (Sha256.hex words))
      values
  done

(* [feed_string] blits runs into the block; any chunking of the input
   must hash like the whole string at once. *)
let test_sha256_feed_string_chunks =
  Test_util.qcheck_case ~count:300 "sha256 feed_string in random chunks"
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (list_size (int_range 0 20) (int_range 0 80)))
    (fun (s, cuts) ->
      let t = Sha256.create () in
      let pos = ref 0 in
      List.iter
        (fun len ->
          let len = min len (String.length s - !pos) in
          Sha256.feed_string t (String.sub s !pos len);
          pos := !pos + len)
        cuts;
      Sha256.feed_string t (String.sub s !pos (String.length s - !pos));
      Sha256.hex t = Sha256.hex_of_string s)

(* Digests of every registered circuit that loads quickly.  The result
   cache is keyed by these strings on disk, so a change to the canonical
   encoding or to the hash breaks every stored entry: this table fails
   first. *)
let golden_digests =
  [
    ("alu4", "442840b36e2c11aefbc797f523e10372f764f1b649598a9ef20a20a41af8d429");
    ("c1908", "956ccc2097921f47da6caa1e9526457ab52157fe77cd0cc120daa51ad7b2887f");
    ("c3540", "91b7df98d3f2e156efde30f356cc9883b7b8564aaf1ce56cff9ff3c128fd7494");
    ("c880", "6cf773101d9e2eb29d1de1e0f7eb0ebd94dd1cd14fee07e4366eeab4071d5e37");
    ("cla32", "5ea0cf56f9b84df09a20b59ae087626404a3db6f0fae828f462792f57cafe303");
    ("ksa32", "23d8f0eb24bb8a8a42f03850a0c92f214ca16d372a41d628589b4195171476da");
    ("mtp8", "728b743c875e148ac093775689b3ede130afa79521e740bce48e7ff4b43d406f");
    ("rca32", "9b21657f36d6ebbac2863384fdc429d0e6455d31313ef4e734a2e435129a3351");
    ("wal8", "eeca42bd35b74800e72fac15ed5774b9caee47284c34a52c7a179059e6b6ac55");
    ("div", "d0d41753edc52e9a1d49d9fe65da3a202aec2f6dde36e4314b915a993af046f3");
    ("log2", "1abe33bc131aeab766f7a57ab08722616d6892ab52e22215d773bd382d02b4ac");
    ("sin", "ff2dad5fd713270bbb5df919538c7a93da7ec1aba9afadb7e4dc98322c54ae98");
    ("sqrt", "c6d2830a9fd226d2afd279b15ae7fbad083643cc25507cfd6f06c847be7cc6f0");
    ("square", "e72b6acd1be4bff968c89d1f676b083085bcb80abb1b2884a530806c4f4dbc4e");
    ("alu2", "aea4d4e43a2908dc0c657438959d490e105dbccb5c99be63d738269990c8540f");
    ("apex6", "a23f784d21029644f6ecd8bb01f8ce3f9414c8db33fe56679a5c59ef218736a9");
    ("frg2", "f2aff1b1e44c89c642d4ea587acbdc0e634618557928b5ff9cf4d7a37a68eae5");
    ("term1", "6eb88be8fdf8f79611ca22a0c566ac0ff8abc323c535f2e30c9b99444b0b7402");
    ("dadda8", "debb2232917cd9459ebba06c7f0f761487682f28eaaffcbe89ff8b8b2f313f3a");
    ("csel32", "7d2418c91990d137ddc1c8f47a4df13783149e06314b91443e498ac3c4432f80");
    ("cskip32", "c5ed604a9d483c5e76059284dbc2c08532296edbcbbe480936719c38fa726788");
    ("popcnt16", "4e5bd594666dcf2bda5e26c0a6ff928b76495211d6eebd5d040ed64a63b3f184");
    ("bshift16", "4634d5275b3c2316724e20008da597e2a2826bd4cc4e6c81a7e5bb68d7e9359a");
    ("mac6", "7c163f89bbec575a1154d2e8aa6f9da8b4a13917db4993331aaa9664aa56a73e");
    ("satadd16", "73fb7e144afef2977a71f4e73270bd0a6fc1038b71778221c85d020ff4d5528b");
    ("fir5", "e0042101b100b4114883a1ba6554c3f6d9eae3ffa85342b027935f9a8bc32d35");
    ("fadd8", "96b7abd4568ac9d5a7392352dbd4d7a87bae35f27728dcd8743c40b147493dbe");
    ("sobel6", "e5eb9f91fa3c00d92c23a0e74340bd96d7a28ace1d8ce16e059787ccd8672fb0");
    ("gray12", "0716cdb141906965339e4d0376aa2e3d674c68aba672ca650c265af8e9feed49");
  ]

let test_digest_golden () =
  List.iter
    (fun (name, expected) ->
      check_string ("digest of " ^ name) expected
        (Network.digest (Bench_suite.load name)))
    golden_digests;
  check_int "every quick circuit is in the table"
    (List.length Bench_suite.all - 3)
    (List.length golden_digests)

(* The synthetic scale points load through sweep, strash and sweep alone,
   which "golden digests" (quick circuits only) does not reach: pin the
   smallest. *)
let test_synth10k_digest_golden () =
  check_string "digest of synth10k"
    "9e11c4af40521feadad285821b6b420be29203a7a4360e26088130847edcda6d"
    (Network.digest (Bench_suite.load "synth10k"))

(* --- hardened JSON parsing --- *)

let test_json_hardening () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  check "shallow nesting parses" true
    (Result.is_ok (Json.parse (deep 100)));
  check "nesting beyond the depth limit is rejected" true
    (Result.is_error (Json.parse (deep (Json.default_max_depth + 1))));
  check "custom depth limit applies" true
    (Result.is_error (Json.parse ~max_depth:10 (deep 11)));
  check "oversized payload is rejected" true
    (Result.is_error (Json.parse ~max_bytes:8 "\"123456789\""));
  check "payload within the byte limit parses" true
    (Result.is_ok (Json.parse ~max_bytes:64 "\"small\""));
  (match Json.parse {|"A"|} with
  | Ok (Json.String "A") -> ()
  | _ -> Alcotest.fail "valid \\u escape");
  check "non-hex \\u escape is rejected" true
    (Result.is_error (Json.parse {|"\u12G4"|}));
  check "underscore in \\u escape is rejected" true
    (Result.is_error (Json.parse {|"\u00_1"|}));
  check "truncated \\u escape is rejected" true
    (Result.is_error (Json.parse {|"\u00"|}));
  check "unescaped control character is rejected" true
    (Result.is_error (Json.parse "\"a\x01b\""));
  check "trailing garbage is rejected" true
    (Result.is_error (Json.parse "{} x"));
  check "unknown escape is rejected" true
    (Result.is_error (Json.parse {|"\q"|}))

(* --- protocol --- *)

let spec ?(name = "rca32") ?(bound = 0.05) ?budget ?deadline ?(priority = 0)
    ?(tenant = "default") ?samples ?(seed = 1) ?trace_id ?client_ts () =
  {
    Protocol.source = Protocol.Named name;
    metric = Metric.Error_rate;
    bound;
    budget;
    deadline;
    priority;
    tenant;
    samples;
    seed;
    trace_id;
    client_ts;
  }

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Submit (spec ());
      Protocol.Submit
        (spec ~bound:0.01 ~budget:2.5 ~priority:3 ~tenant:"t" ~samples:64
           ~seed:9 ());
      Protocol.Submit (spec ~deadline:30.0 ());
      Protocol.Submit
        { (spec ()) with Protocol.source = Protocol.Blif_text "blif here" };
      Protocol.Status "j-000001";
      Protocol.Result "j-000002";
      Protocol.Cancel "j-000003";
      Protocol.List;
      Protocol.Metrics;
      Protocol.Health;
      Protocol.Trace "j-000004";
      Protocol.Events "j-000005";
      Protocol.Ping;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Json.to_string (Protocol.request_to_json r)) with
      | Ok r' -> check "request survives the wire" true (r = r')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    requests

let test_protocol_validation () =
  let reject s =
    check (Printf.sprintf "%S rejected" s) true
      (Result.is_error (Protocol.parse_request s))
  in
  reject "not json";
  reject {|{"req": "warp"}|};
  reject {|{"req": "slo"}|};
  reject {|{"req": "submit"}|};
  reject {|{"req": "submit", "name": "rca32"}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "XYZ", "bound": 0.1}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": -1}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": 0.1, "budget": 0}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": 0.1, "deadline": 0}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": 0.1, "deadline": -2}|};
  reject {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": 0.1, "samples": 0}|};
  reject
    {|{"req": "submit", "name": "rca32", "circuit": ".model m", "metric": "ER", "bound": 0.1}|};
  reject {|{"req": "status"}|};
  match
    Protocol.parse_request
      {|{"req": "submit", "name": "rca32", "metric": "ER", "bound": 0.1}|}
  with
  | Ok (Protocol.Submit s) ->
    check "defaults" true
      (s.Protocol.priority = 0 && s.Protocol.tenant = "default"
      && s.Protocol.samples = None && s.Protocol.seed = 1
      && s.Protocol.budget = None && s.Protocol.deadline = None)
  | _ -> Alcotest.fail "minimal submit should parse"

(* The version stamp gates compatibility: encoded requests carry "v",
   an unknown major version is a structured rejection (so old clients
   get a actionable error, not a parse failure), and unstamped requests
   are grandfathered in as version 1. *)
let test_protocol_versioning () =
  (match Json.member "v" (Protocol.request_to_json Protocol.Ping) with
  | Some (Json.Int v) -> check_int "requests are stamped" Protocol.version v
  | _ -> Alcotest.fail "encoded request missing the version stamp");
  (match Protocol.parse_request_v {|{"req": "ping", "v": 1}|} with
  | Ok (Protocol.Ping, None) -> ()
  | _ -> Alcotest.fail "current version accepted");
  (match Protocol.parse_request_v {|{"req": "ping"}|} with
  | Ok (Protocol.Ping, None) -> ()
  | _ -> Alcotest.fail "unstamped request treated as v1");
  (match Protocol.parse_request_v {|{"req": "warp", "v": 99}|} with
  | Error (Protocol.Unsupported_version 99) ->
    (* the version gate runs before shape validation: a client two majors
       ahead may use requests this server cannot even parse *)
    check "reject message names the version" true
      (let m = Protocol.reject_message (Protocol.Unsupported_version 99) in
       String.length m > 0)
  | _ -> Alcotest.fail "unknown version rejected before shape parsing");
  (match Protocol.parse_request_v {|{"req": "ping", "v": "one"}|} with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "non-integer version is malformed");
  (match Protocol.parse_request_v {|{"req": "ping", "token": "s"}|} with
  | Ok (Protocol.Ping, Some "s") -> ()
  | _ -> Alcotest.fail "token still extracted");
  check "health is unprivileged (load balancers need no token)" false
    (Protocol.privileged Protocol.Health);
  let structured =
    Protocol.error_response_code ~code:"overloaded"
      ~extra:[ ("retry_after_ms", Json.Int 250) ]
      "queue full"
  in
  check "structured errors carry code and extras" true
    (Json.member "code" structured = Some (Json.String "overloaded")
    && Json.member "retry_after_ms" structured = Some (Json.Int 250)
    && Json.member "ok" structured = Some (Json.Bool false))

(* --- result cache --- *)

let test_cache_roundtrip () =
  let dir = temp_dir "accals_cache" in
  let cache = Cache.create ~dir in
  let key =
    Cache.key ~digest:"0123456789abcdef" ~metric:Metric.Error_rate ~bound:0.05
      ~samples:256 ~seed:1
  in
  check "fresh cache misses" true (Cache.find cache key = None);
  let entry =
    { Cache.key; report = Json.Obj [ ("x", Json.Int 1) ]; blif = ".model m\n" }
  in
  Cache.store cache entry;
  (match Cache.find cache key with
  | Some e ->
    check_string "blif survives" entry.Cache.blif e.Cache.blif;
    check "report survives" true (e.Cache.report = entry.Cache.report)
  | None -> Alcotest.fail "stored entry not found");
  check_int "one entry on disk" 1 (Cache.size cache);
  (* A separate handle on the same directory sees the entry (restart). *)
  let cache2 = Cache.create ~dir in
  check "entry survives a reopen" true (Cache.find cache2 key <> None);
  (* Corruption behaves as a miss, never an error. *)
  let oc = open_out (Filename.concat dir (key ^ ".json")) in
  output_string oc "{ corrupt";
  close_out oc;
  check "corrupt entry is a miss" true (Cache.find cache key = None)

let test_cache_keys () =
  let key ?(digest = "d") ?(bound = 0.05) ?(samples = 256) ?(seed = 1)
      ?(metric = Metric.Error_rate) () =
    Cache.key ~digest ~metric ~bound ~samples ~seed
  in
  let base = key () in
  check "digest is part of the key" true (base <> key ~digest:"e" ());
  check "bound is part of the key" true (base <> key ~bound:0.04 ());
  check "samples are part of the key" true (base <> key ~samples:512 ());
  check "seed is part of the key" true (base <> key ~seed:2 ());
  check "metric is part of the key" true (base <> key ~metric:Metric.Nmed ());
  check_string "key is deterministic" base (key ())

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Array.length entries
  | exception Sys_error _ -> -1

(* A lookup that hits a truncated or corrupt entry must close its channel
   (an fd leaked per lookup starves the select loop of descriptors) and
   delete the entry so it stops costing an open + parse every time. *)
let test_cache_fd_hygiene () =
  let dir = temp_dir "accals_cache_fd" in
  let cache = Cache.create ~dir in
  let file = Filename.concat dir "bad.json" in
  ignore (Cache.find cache "bad");
  let baseline = open_fds () in
  for _ = 1 to 50 do
    let oc = open_out file in
    output_string oc "{ \"key\": \"bad\", truncated";
    close_out oc;
    check "corrupt entry is a miss" true (Cache.find cache "bad" = None);
    check "corrupt entry deleted on first miss" false (Sys.file_exists file)
  done;
  if baseline >= 0 then
    check_int "no fd leaked across 50 corrupt lookups" baseline (open_fds ())

let test_cache_eviction () =
  let dir = temp_dir "accals_cache_evict" in
  let cache = Cache.create ~dir in
  let blif = String.make 1024 'x' in
  let entry k =
    { Cache.key = k; report = Json.Obj [ ("k", Json.String k) ]; blif }
  in
  List.iter (fun k -> Cache.store cache (entry k)) [ "a"; "b"; "c" ];
  let file k = Filename.concat dir (k ^ ".json") in
  (* Pin the recency order: a oldest, then b, then c. *)
  List.iteri
    (fun i k ->
      let t = float_of_int ((i + 1) * 1000) in
      Unix.utimes (file k) t t)
    [ "a"; "b"; "c" ];
  (* A hit refreshes recency, so a becomes the most recently used and b
     inherits the eviction slot. *)
  check "hit before eviction" true (Cache.find cache "a" <> None);
  (* Corrupt garbage occupies bytes but can never be a hit again. *)
  let oc = open_out (file "zz") in
  output_string oc (String.make 2048 '{');
  close_out oc;
  let keep = Unix.((stat (file "a")).st_size + (stat (file "c")).st_size) in
  check "over the cap before eviction" true (Cache.bytes cache > keep);
  let ev = Cache.evict cache ~max_bytes:keep in
  check_int "corrupt entry evicted first" 1 ev.Cache.removed_corrupt;
  check_int "one valid entry evicted" 1 ev.Cache.removed_lru;
  check "least-recently-used entry was the victim" false
    (Sys.file_exists (file "b"));
  check "touched entry survived" true (Sys.file_exists (file "a"));
  check "newest entry survived" true (Sys.file_exists (file "c"));
  check "under the cap afterwards" true (ev.Cache.bytes_after <= keep);
  check_int "bytes_after reflects the disk" (Cache.bytes cache)
    ev.Cache.bytes_after;
  let ev2 = Cache.evict cache ~max_bytes:keep in
  check "eviction under the cap is a no-op" true
    (ev2.Cache.removed_corrupt = 0 && ev2.Cache.removed_lru = 0);
  check "survivors still hit" true
    (Cache.find cache "a" <> None && Cache.find cache "c" <> None)

(* A store into a cache already at (or over) its byte cap must evict
   first: the on-disk total never overshoots the cap, even transiently. *)
let test_cache_store_evicts_at_cap () =
  let dir = temp_dir "accals_cache_cap" in
  let cache = Cache.create ~dir in
  let blif = String.make 1024 'x' in
  let entry k =
    { Cache.key = k; report = Json.Obj [ ("k", Json.String k) ]; blif }
  in
  List.iter (fun k -> Cache.store cache (entry k)) [ "a"; "b" ];
  let file k = Filename.concat dir (k ^ ".json") in
  (* Pin recency: a is the LRU victim. *)
  List.iteri
    (fun i k ->
      let t = float_of_int ((i + 1) * 1000) in
      Unix.utimes (file k) t t)
    [ "a"; "b" ];
  let cap = Cache.bytes cache + 100 (* room for less than one entry *) in
  Cache.store ~max_bytes:cap cache (entry "c");
  check "LRU entry evicted to make room" false (Sys.file_exists (file "a"));
  check "recent entry survived" true (Sys.file_exists (file "b"));
  check "new entry stored" true (Cache.find cache "c" <> None);
  check "never over the cap" true (Cache.bytes cache <= cap);
  (* Cap large enough for everything: no eviction at all. *)
  Cache.store ~max_bytes:(1 lsl 30) cache (entry "d");
  check "roomy cap evicts nothing" true
    (Sys.file_exists (file "b") && Sys.file_exists (file "c")
    && Sys.file_exists (file "d"))

module Fault_io = Accals_resilience.Fault_io

let with_io_faults spec_s f =
  (match Fault_io.parse spec_s with
  | Ok spec -> Fault_io.arm spec
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec_s e);
  Fun.protect ~finally:Fault_io.disarm f

(* A store that hits ENOSPC (real or injected) must leave the previous
   entry for the key intact and no temp residue — the caller's
   evict-and-retry can then run against a clean directory. *)
let test_cache_store_enospc_keeps_old_entry () =
  let dir = temp_dir "accals_cache_enospc" in
  let cache = Cache.create ~dir in
  let entry k blif =
    { Cache.key = k; report = Json.Obj [ ("k", Json.String k) ]; blif }
  in
  Cache.store cache (entry "k" "v1");
  List.iter
    (fun spec ->
      with_io_faults spec (fun () ->
          check (spec ^ " surfaces as Unix_error") true
            (match Cache.store cache (entry "k" "v2") with
            | () -> false
            | exception Unix.Unix_error ((Unix.ENOSPC | Unix.EMFILE), _, _)
              -> true));
      (match Cache.find cache "k" with
      | Some e -> check_string (spec ^ ": old entry intact") "v1" e.Cache.blif
      | None -> Alcotest.failf "%s: entry lost" spec);
      check (spec ^ ": no temp residue") true
        (Array.for_all
           (fun f -> Filename.check_suffix f ".json")
           (Sys.readdir dir)))
    [ "open:emfile@1"; "write:enospc@1"; "write:short@1"; "rename:enospc@1" ];
  Cache.store cache (entry "k" "v2");
  check "clean store after faults wins" true
    (match Cache.find cache "k" with
    | Some e -> e.Cache.blif = "v2"
    | None -> false)

(* --- backoff --- *)

let test_backoff () =
  let p = Backoff.default in
  for a = 1 to 12 do
    check "schedule is deterministic" true
      (Backoff.delay p ~attempt:a = Backoff.delay p ~attempt:a);
    let d = Backoff.delay p ~attempt:a in
    check "delay is positive" true (d > 0.0);
    check "delay respects the cap" true
      (d <= p.Backoff.max_delay *. (1.0 +. p.Backoff.jitter))
  done;
  check "jitter de-synchronizes attempts" true
    (Backoff.delay p ~attempt:1 <> Backoff.delay p ~attempt:2
    || Backoff.delay p ~attempt:2 <> Backoff.delay p ~attempt:3);
  check "delays grow exponentially below the cap" true
    (Backoff.delay p ~attempt:5 > Backoff.delay p ~attempt:1);
  (* max_total is a hard bound on the sum of all granted delays. *)
  let s = Backoff.start { p with Backoff.max_total = 1.0 } in
  let total = ref 0.0 and steps = ref 0 in
  let rec drain () =
    match Backoff.next s with
    | Some d ->
      total := !total +. d;
      incr steps;
      drain ()
    | None -> ()
  in
  drain ();
  check "schedule grants at least one step" true (!steps > 0);
  check "schedule terminates within its budget" true (!total <= 1.0 +. 1e-9);
  check "total_slept accounts every grant" true
    (abs_float (Backoff.total_slept s -. !total) < 1e-9);
  check_int "attempts counted" !steps (Backoff.attempts s);
  (* A server retry_after hint floors one step; the floored amount still
     burns the budget, so hints cannot extend the total wait. *)
  let s2 = Backoff.start { p with Backoff.max_total = 10.0 } in
  (match Backoff.next_with_floor s2 ~floor:3.0 with
  | Some d -> check "server hint floors the delay" true (d >= 3.0)
  | None -> Alcotest.fail "budget should allow a floored step");
  check "floored step burns the budget" true (Backoff.total_slept s2 >= 3.0);
  (* A hint larger than the remaining budget is clamped, never exceeded. *)
  let s3 = Backoff.start { p with Backoff.max_total = 0.5 } in
  (match Backoff.next_with_floor s3 ~floor:60.0 with
  | Some d -> check "floor clamped to the remaining budget" true (d <= 0.5)
  | None -> Alcotest.fail "first step should be granted")

(* --- scheduler --- *)

let submit_job sched ?(key = "k") ?budget ~tenant ~priority name =
  Scheduler.submit sched
    ~spec:(spec ~name ~tenant ~priority ?budget ())
    ~circuit:name ~digest:"d" ~key ()

let test_scheduler_policy () =
  let s = Scheduler.create () in
  let j_low = submit_job s ~key:"k1" ~tenant:"a" ~priority:0 "one" in
  let j_high = submit_job s ~key:"k2" ~tenant:"a" ~priority:5 "two" in
  let j_other = submit_job s ~key:"k3" ~tenant:"b" ~priority:0 "three" in
  let j_last = submit_job s ~key:"k4" ~tenant:"a" ~priority:0 "four" in
  (* Strict priority first. *)
  (match Scheduler.pick s with
  | Some j -> check "priority wins" true (Scheduler.id j = Scheduler.id j_high)
  | None -> Alcotest.fail "expected a pick");
  (* Fair share: tenant a now has a running job, so tenant b goes next
     even though tenant a submitted first. *)
  (match Scheduler.pick s with
  | Some j -> check "fair share wins" true (Scheduler.id j = Scheduler.id j_other)
  | None -> Alcotest.fail "expected a pick");
  (* FIFO within the tenant. *)
  (match Scheduler.pick s with
  | Some j -> check "fifo wins" true (Scheduler.id j = Scheduler.id j_low)
  | None -> Alcotest.fail "expected a pick");
  (match Scheduler.pick s with
  | Some j -> check "last job" true (Scheduler.id j = Scheduler.id j_last)
  | None -> Alcotest.fail "expected a pick");
  check "queue drained" true (Scheduler.pick s = None)

let test_scheduler_lifecycle () =
  let s = Scheduler.create () in
  let j1 = submit_job s ~key:"k1" ~tenant:"a" ~priority:0 "one" in
  let j2 = submit_job s ~key:"k2" ~tenant:"a" ~priority:0 "two" in
  (* Cancel while queued: terminal immediately, never picked. *)
  check "queued cancel" true
    (Scheduler.settle s j1 `Cancelled = Some Scheduler.Queued);
  (match Scheduler.pick s with
  | Some j -> check "cancelled job skipped" true (Scheduler.id j = Scheduler.id j2)
  | None -> Alcotest.fail "expected a pick");
  (* Cancel while running: cooperative flag, then terminal on report. *)
  Scheduler.request_cancel s j2;
  check "running cancel is a request" true
    (Scheduler.state s j2 = Scheduler.Running);
  check "worker sees the flag" true (Scheduler.cancel_requested j2);
  check "worker report settles" true
    (Scheduler.settle s j2 `Cancelled = Some Scheduler.Running);
  check "terminal cancel" true (Scheduler.settle s j2 `Cancelled = None);
  let v = Scheduler.view s j2 in
  check "view state" true (v.Scheduler.v_state = Scheduler.Cancelled);
  check "events recorded" true (List.length (Scheduler.events s j2) >= 3);
  check "trace events synthesized" true
    (List.length (Scheduler.trace_events s j2) >= 2)

let test_scheduler_coalescing () =
  let s = Scheduler.create () in
  let j = submit_job s ~key:"kk" ~tenant:"a" ~priority:0 "one" in
  (* In-flight jobs coalesce only when budgets agree. *)
  check "same budget coalesces" true
    (Scheduler.active_by_key s "kk" ~budget:None <> None);
  check "different budget does not coalesce" true
    (Scheduler.active_by_key s "kk" ~budget:(Some 1.0) = None);
  check "other keys do not match" true
    (Scheduler.active_by_key s "zz" ~budget:None = None);
  (* A degraded result is not reusable; a converged one is, regardless of
     budget. *)
  ignore (Scheduler.pick s);
  let entry = Cache.members { Cache.key = "kk"; report = Json.Null; blif = "b" } in
  ignore (Scheduler.settle s j (`Done (entry, true)));
  check "degraded result is not a hit" true
    (Scheduler.active_by_key s "kk" ~budget:None = None);
  let j2 = submit_job s ~key:"kk" ~tenant:"a" ~priority:0 "one" in
  ignore (Scheduler.pick s);
  ignore (Scheduler.settle s j2 (`Done (entry, false)));
  check "converged result is a hit for any budget" true
    (Scheduler.active_by_key s "kk" ~budget:(Some 9.0) <> None)

(* Job ids act as capabilities (result/cancel take nothing else), so the
   sequential counter must be extended with an unguessable nonce. *)
let test_scheduler_job_ids () =
  let id_of sched = Scheduler.id (submit_job sched ~tenant:"a" ~priority:0 "c") in
  let a = id_of (Scheduler.create ()) in
  let b = id_of (Scheduler.create ()) in
  check_int "id carries a 64-bit nonce" (String.length "j-000001-0123456789abcdef")
    (String.length a);
  check "same sequence number, different ids across instances" true (a <> b);
  let nonce s = String.sub s 9 16 in
  check "nonce is hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (nonce a));
  check "find by id still works" true
    (let s = Scheduler.create () in
     let j = submit_job s ~tenant:"a" ~priority:0 "c" in
     Scheduler.find s (Scheduler.id j) <> None)

(* Per-tenant running quotas: a tenant at its cap is passed over — its
   jobs wait in the queue rather than being shed — and other tenants
   keep getting slots. *)
let test_scheduler_quota () =
  let s = Scheduler.create () in
  let a1 = submit_job s ~key:"a1" ~tenant:"a" ~priority:0 "one" in
  let a2 = submit_job s ~key:"a2" ~tenant:"a" ~priority:0 "two" in
  let b1 = submit_job s ~key:"b1" ~tenant:"b" ~priority:0 "three" in
  check "totals before" true (Scheduler.totals s = (3, 0));
  check "tenant a load before" true (Scheduler.tenant_load s "a" = (2, 0));
  check "unknown tenant load" true (Scheduler.tenant_load s "nope" = (0, 0));
  (match Scheduler.pick ~tenant_max_running:1 s with
  | Some j ->
    check "first pick follows policy" true (Scheduler.id j = Scheduler.id a1)
  | None -> Alcotest.fail "expected a pick");
  (* Tenant a is now at its quota: its second job must not starve b. *)
  (match Scheduler.pick ~tenant_max_running:1 s with
  | Some j ->
    check "tenant at quota cannot starve others" true
      (Scheduler.id j = Scheduler.id b1)
  | None -> Alcotest.fail "expected a pick");
  (* Every tenant at quota: the surplus job waits; it is not dropped. *)
  check "over-quota job waits instead of running" true
    (Scheduler.pick ~tenant_max_running:1 s = None);
  check "waiting job is still queued" true (Scheduler.totals s = (1, 2));
  check "tenant a load at quota" true (Scheduler.tenant_load s "a" = (1, 1));
  (* Finishing a job frees the quota and the waiting job runs. *)
  ignore
    (Scheduler.settle s a1
       (`Done
          (Cache.members { Cache.key = "a1"; report = Json.Null; blif = "b" }, false)));
  (match Scheduler.pick ~tenant_max_running:1 s with
  | Some j ->
    check "freed quota admits the waiting job" true
      (Scheduler.id j = Scheduler.id a2)
  | None -> Alcotest.fail "expected a pick");
  check "totals after" true (Scheduler.totals s = (0, 2))

(* Wall-clock deadlines: overdue jobs are failed as deadline_exceeded in
   either phase, the cancel flag tells an abandoned worker to unwind, and
   the worker's late report can never overwrite the verdict. *)
let test_scheduler_deadline () =
  let s = Scheduler.create () in
  let mk key deadline =
    Scheduler.submit s
      ~spec:(spec ~name:"one" ~tenant:"a" ?deadline ())
      ~circuit:"one" ~digest:"d" ~key ()
  in
  let j_r = mk "r" (Some 0.001) in
  (match Scheduler.pick s with
  | Some j -> check "r started" true (Scheduler.id j = Scheduler.id j_r)
  | None -> Alcotest.fail "expected a pick");
  let j_q = mk "q" (Some 0.001) in
  let j_n = mk "n" None in
  check "deadline stamped as absolute time" true
    (Scheduler.deadline_mono j_q <> None);
  check "no deadline, no clock" true (Scheduler.deadline_mono j_n = None);
  Unix.sleepf 0.01;
  let overdue = Scheduler.expired s ~now:(Clock.now ()) in
  check_int "both overdue jobs listed" 2 (List.length overdue);
  check "job without a deadline never expires" true
    (not
       (List.exists (fun j -> Scheduler.id j = Scheduler.id j_n) overdue));
  let expire j = Scheduler.settle s j (`Failed Scheduler.Deadline_exceeded) in
  check "running job expires in its phase" true
    (expire j_r = Some Scheduler.Running);
  check "queued job expires in its phase" true
    (expire j_q = Some Scheduler.Queued);
  check "expire is idempotent" true (expire j_q = None);
  check "expired job is failed" true (Scheduler.state s j_q = Scheduler.Failed);
  check "failure names the deadline" true
    ((Scheduler.view s j_q).Scheduler.v_failure = Some "deadline_exceeded");
  check "abandoned worker is told to unwind" true
    (Scheduler.cancel_requested j_r);
  (* The abandoned worker eventually notices the flag and reports — by
     then the verdict is already written and must stand. *)
  check "late cancel report is a no-op" true
    (Scheduler.settle s j_r `Cancelled = None
    && Scheduler.state s j_r = Scheduler.Failed
    && (Scheduler.view s j_r).Scheduler.v_failure = Some "deadline_exceeded");
  check "late success report is a no-op" true
    (Scheduler.settle s j_r
       (`Done
          (Cache.members { Cache.key = "r"; report = Json.Null; blif = "b" }, false))
    = None);
  check "late success leaves the verdict" true
    (Scheduler.state s j_r = Scheduler.Failed
    && Scheduler.result s j_r = None);
  (* The expired queued job is terminal: the dispatcher skips it. *)
  (match Scheduler.pick s with
  | Some j ->
    check "healthy job picked over the expired one" true
      (Scheduler.id j = Scheduler.id j_n)
  | None -> Alcotest.fail "expected a pick");
  check "queue drained" true (Scheduler.pick s = None)

(* A queued job holds its parsed circuit only while it waits: cancelling
   or expiring it releases the circuit, and a picked job's circuit goes
   to its worker exactly once. *)
let test_scheduler_circuit_release () =
  let s = Scheduler.create () in
  let net = Bench_suite.load "mtp8" in
  let mk key =
    Scheduler.submit s ~spec:(spec ~name:"mtp8" ()) ~circuit:"mtp8"
      ~digest:"d" ~key ~net ()
  in
  let j_run = mk "run" in
  let j_cancel = mk "cancel" in
  let j_expire = mk "expire" in
  check "queued cancel settles" true
    (Scheduler.settle s j_cancel `Cancelled = Some Scheduler.Queued);
  check "cancelled job no longer holds its circuit" true
    (Scheduler.take_circuit s j_cancel = None);
  check "queued expiry settles" true
    (Scheduler.settle s j_expire (`Failed Scheduler.Deadline_exceeded)
    = Some Scheduler.Queued);
  check "expired job no longer holds its circuit" true
    (Scheduler.take_circuit s j_expire = None);
  (match Scheduler.pick s with
  | Some j -> check "waiting job picked" true (Scheduler.id j = Scheduler.id j_run)
  | None -> Alcotest.fail "expected a pick");
  (match Scheduler.take_circuit s j_run with
  | Some n -> check "picked job hands its circuit over" true (n == net)
  | None -> Alcotest.fail "picked job lost its circuit");
  check "circuit handed over once" true (Scheduler.take_circuit s j_run = None)

(* The admission and deadline queries walk only the queued and running
   jobs: with thousands of finished jobs behind them they must still
   answer exactly what a fold over every admitted job answers. *)
let test_scheduler_history_differential () =
  let s = Scheduler.create () in
  let rng = Random.State.make [| 24 |] in
  let tenants = [ "a"; "b"; "c" ] and keys = [ "k0"; "k1"; "k2"; "k3"; "k4" ] in
  let budgets = [ None; Some 1.0 ] in
  let pick_from l = List.nth l (Random.State.int rng (List.length l)) in
  let entry = Cache.members { Cache.key = "k"; report = Json.Null; blif = "b" } in
  let live j =
    match Scheduler.state s j with
    | Scheduler.Queued | Scheduler.Running -> true
    | Scheduler.Done | Scheduler.Failed | Scheduler.Cancelled -> false
  in
  let load ?tenant () =
    List.fold_left
      (fun (q, r) j ->
        if Option.fold tenant ~none:false ~some:(( <> ) (Scheduler.spec j).Protocol.tenant)
        then (q, r)
        else
          match Scheduler.state s j with
          | Scheduler.Queued -> (q + 1, r)
          | Scheduler.Running -> (q, r + 1)
          | Scheduler.Done | Scheduler.Failed | Scheduler.Cancelled -> (q, r))
      (0, 0) (Scheduler.all s)
  in
  let by_key k ~budget =
    List.fold_left
      (fun acc j ->
        if Scheduler.key j <> k then acc
        else
          match Scheduler.state s j with
          | (Scheduler.Queued | Scheduler.Running)
            when (Scheduler.spec j).Protocol.budget = budget ->
            Some j
          | Scheduler.Done
            when Scheduler.result s j <> None
                 && not (Scheduler.view s j).Scheduler.v_degraded ->
            Some j
          | _ -> acc)
      None
      (List.rev (Scheduler.all s))
  in
  let ids = List.map Scheduler.id in
  let agree step =
    let tag what = Printf.sprintf "%s after %d steps" what step in
    check (tag "totals") true (Scheduler.totals s = load ());
    List.iter
      (fun tenant ->
        check (tag ("load of " ^ tenant)) true
          (Scheduler.tenant_load s tenant = load ~tenant ()))
      tenants;
    List.iter
      (fun now ->
        let overdue =
          List.filter
            (fun j ->
              live j
              && Option.fold (Scheduler.deadline_mono j) ~none:false ~some:(fun d ->
                     now >= d))
            (Scheduler.all s)
        in
        check (tag "expired") true (ids (Scheduler.expired s ~now) = ids overdue))
      [ neg_infinity; Clock.now (); infinity ];
    List.iter
      (fun k ->
        List.iter
          (fun budget ->
            check (tag ("active_by_key " ^ k)) true
              (Option.map Scheduler.id (Scheduler.active_by_key s k ~budget)
              = Option.map Scheduler.id (by_key k ~budget)))
          budgets)
      keys;
    check (tag "queued specs") true
      (Scheduler.queued_specs s
      = List.map Scheduler.spec (List.filter live (Scheduler.all s)))
  in
  for step = 1 to 4000 do
    (match Random.State.int rng 5 with
     | 0 | 1 ->
       let key = pick_from keys in
       let cached = if Random.State.int rng 8 = 0 then Some entry else None in
       ignore
         (Scheduler.submit s
            ~spec:
              (spec ~name:"one" ~tenant:(pick_from tenants)
                 ~priority:(Random.State.int rng 3) ?budget:(pick_from budgets)
                 ?deadline:(pick_from [ None; Some 0.0; Some 1000.0 ])
                 ())
            ~circuit:"one" ~digest:"d" ~key ?cached ())
     | 2 -> ignore (Scheduler.pick s)
     | _ -> (
       match List.filter live (Scheduler.all s) with
       | [] -> ()
       | active ->
         let j = pick_from active in
         ignore
           (Scheduler.settle s j
              (pick_from
                 [ `Done (entry, false); `Done (entry, true);
                   `Failed Scheduler.Deadline_exceeded; `Cancelled ]))));
    if step mod 500 = 0 then agree step
  done;
  let finished = List.filter (fun j -> not (live j)) (Scheduler.all s) in
  check "thousands of finished jobs" true (List.length finished >= 1000)

(* --- graceful shutdown --- *)

let test_graceful () =
  Graceful.clear ();
  check "idle" true (Graceful.stop_requested () = None);
  Graceful.check ();
  Graceful.request_stop Sys.sigterm;
  Graceful.request_stop Sys.sigint;
  check "first signal wins" true (Graceful.stop_requested () = Some Sys.sigterm);
  check "check raises" true
    (match Graceful.check () with
    | exception Graceful.Interrupted s -> s = Sys.sigterm
    | () -> false);
  Graceful.clear ();
  check "cleared" true (Graceful.stop_requested () = None);
  check_int "sigint exit code" 130 (Graceful.exit_code Sys.sigint);
  check_int "sigterm exit code" 143 (Graceful.exit_code Sys.sigterm);
  let hits = ref [] in
  Graceful.on_shutdown "a" (fun () -> hits := "a" :: !hits);
  Graceful.on_shutdown "b" (fun () -> hits := "b" :: !hits);
  Graceful.on_shutdown "boom" (fun () -> failwith "flush failure");
  Graceful.run_hooks ();
  Graceful.run_hooks ();
  check "hooks ran exactly once each, failures swallowed" true
    (List.sort compare !hits = [ "a"; "b" ])

(* Satellite of the shutdown path: a flush hook whose durable write hits
   an injected fault (ENOSPC, torn write) raises out of the hook, but the
   remaining hooks must still run and the signal-derived exit code must
   be unaffected — a full disk cannot turn a clean SIGTERM into a crash. *)
let test_graceful_flush_under_write_failure () =
  Graceful.clear ();
  let dir = temp_dir "accals_flush_fault" in
  List.iter
    (fun spec ->
      let hits = ref [] in
      let failed = ref false in
      with_io_faults spec (fun () ->
          Graceful.on_shutdown "sink-late" (fun () ->
              hits := "sink-late" :: !hits);
          Graceful.on_shutdown "flaky-flush" (fun () ->
              let oc =
                Fault_io.open_out_bin (Filename.concat dir "flush.out")
              in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  try Fault_io.output_string oc "final telemetry\n"
                  with e ->
                    failed := true;
                    raise e));
          Graceful.on_shutdown "sink-early" (fun () ->
              hits := "sink-early" :: !hits);
          Graceful.request_stop Sys.sigterm;
          Graceful.run_hooks ());
      check (spec ^ ": hook write actually failed") true !failed;
      check (spec ^ ": surviving hooks all ran") true
        (List.sort compare !hits = [ "sink-early"; "sink-late" ]);
      (* The recorded signal — what the CLI turns into the exit code —
         survives the failing flush. *)
      check (spec ^ ": signal preserved") true
        (Graceful.stop_requested () = Some Sys.sigterm);
      check_int (spec ^ ": exit code still 143") 143
        (Graceful.exit_code Sys.sigterm);
      check_int (spec ^ ": sigint mapping untouched") 130
        (Graceful.exit_code Sys.sigint);
      Graceful.clear ())
    [ "write:enospc@1"; "write:short@1" ]

(* --- end-to-end daemon --- *)

let get_string field v =
  match Option.bind (Json.member field v) Json.string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response missing %S" field

let ok_exn what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let e2e_samples = 128

let e2e_spec ?budget ?deadline ?(tenant = "default") ?(seed = 1)
    ?(samples = e2e_samples) ?trace_id name bound =
  {
    Protocol.source = Protocol.Named name;
    metric = Metric.Error_rate;
    bound;
    budget;
    deadline;
    priority = 0;
    tenant;
    samples = Some samples;
    seed;
    trace_id;
    client_ts = None;
  }

let one_shot name bound =
  let net = Bench_suite.load name in
  let base = { Config.default with Config.samples = e2e_samples; seed = 1; jobs = 1 } in
  let report =
    Engine.run
      ~config:(Config.for_network ~base net)
      net ~metric:Metric.Error_rate ~error_bound:bound
  in
  Blif.to_string report.Engine.approximate

let test_daemon_e2e () =
  let dir = temp_dir "accals_daemon" in
  let sock n = Filename.concat dir (Printf.sprintf "t%d.sock" n) in
  let mk_server n =
    Server.create
      {
        Server.default_config with
        Server.socket = sock n;
        jobs = 2;
        max_concurrent = 2;
        cache_dir = Some (Filename.concat dir "cache");
        state_dir = Some (Filename.concat dir "state");
        default_samples = e2e_samples;
        log = false;
      }
  in
  let server = mk_server 1 in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_unix_retry (sock 1) in
  check "ping" true (Client.ping c);
  (* Two concurrent jobs; their results must be bit-identical to one-shot
     synth runs of the same configuration. *)
  let id1, cached1 = ok_exn "submit rca32" (Client.submit c (e2e_spec "rca32" 0.05)) in
  let id2, cached2 = ok_exn "submit mtp8" (Client.submit c (e2e_spec "mtp8" 0.02)) in
  check "cold submissions are not cached" false (cached1 || cached2);
  let r1 = ok_exn "wait rca32" (Client.wait ~timeout:300.0 c id1) in
  let r2 = ok_exn "wait mtp8" (Client.wait ~timeout:300.0 c id2) in
  check_string "job 1 done" "done" (get_string "state" r1);
  check_string "job 2 done" "done" (get_string "state" r2);
  check_string "daemon rca32 = one-shot rca32" (one_shot "rca32" 0.05)
    (get_string "blif" r1);
  check_string "daemon mtp8 = one-shot mtp8" (one_shot "mtp8" 0.02)
    (get_string "blif" r2);
  (* Duplicate submission: answered from the finished job, no re-run. *)
  let id_dup, cached_dup =
    ok_exn "dup submit" (Client.submit c (e2e_spec "rca32" 0.05))
  in
  check "duplicate is served from cache" true cached_dup;
  check_string "duplicate coalesces onto the finished job" id1 id_dup;
  (* Cancel mid-run frees the slot and lands terminal. *)
  let id_slow, _ =
    ok_exn "submit slow" (Client.submit c (e2e_spec ~samples:4096 "div" 0.01))
  in
  Unix.sleepf 0.3;
  let cancel_resp = ok_exn "cancel" (Client.rpc c (Protocol.Cancel id_slow)) in
  check "cancel accepted" true (Client.ok cancel_resp);
  let r_slow = ok_exn "wait cancelled" (Client.wait ~timeout:300.0 c id_slow) in
  check_string "cancelled state" "cancelled" (get_string "state" r_slow);
  (* Observability endpoints. *)
  let m = ok_exn "metrics" (Client.rpc c Protocol.Metrics) in
  let prom = get_string "metrics" m in
  check "prometheus text has server families" true
    (let has needle =
       let rec go i =
         i + String.length needle <= String.length prom
         && (String.sub prom i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has "accals_server_jobs_submitted_total" && has "accals_server_queue_depth");
  let ev = ok_exn "events" (Client.rpc c (Protocol.Events id1)) in
  (match Json.member "events" ev with
  | Some (Json.List l) -> check "job event stream" true (List.length l >= 2)
  | _ -> Alcotest.fail "events endpoint");
  let tr = ok_exn "trace" (Client.rpc c (Protocol.Trace id1)) in
  (match Json.member "trace" tr with
  | Some (Json.List l) -> check "job chrome trace" true (List.length l >= 2)
  | _ -> Alcotest.fail "trace endpoint");
  (* Clean shutdown over the wire. *)
  let bye = ok_exn "shutdown" (Client.rpc c Protocol.Shutdown) in
  check "shutdown acknowledged" true (Client.ok bye);
  Domain.join daemon;
  Client.close c;
  (* Restart with the same cache directory: the rca32 result must be served
     from disk without running the engine. *)
  let server2 = mk_server 2 in
  let daemon2 = Domain.spawn (fun () -> Server.run server2) in
  let c2 = Client.connect_unix_retry (sock 2) in
  let t0 = Unix.gettimeofday () in
  let id_re, cached_re =
    ok_exn "resubmit" (Client.submit c2 (e2e_spec "rca32" 0.05))
  in
  check "disk cache hit across restart" true cached_re;
  check "disk hit is immediate" true (Unix.gettimeofday () -. t0 < 5.0);
  let r_re = ok_exn "wait resubmit" (Client.wait ~timeout:60.0 c2 id_re) in
  check_string "restarted daemon returns the identical circuit"
    (get_string "blif" r1) (get_string "blif" r_re);
  let m2 = ok_exn "metrics2" (Client.rpc c2 Protocol.Metrics) in
  let prom2 = get_string "metrics" m2 in
  check "restart counted a disk cache hit" true
    (let needle = {|accals_server_cache_hits_total{source="disk"} 1|} in
     let rec go i =
       i + String.length needle <= String.length prom2
       && (String.sub prom2 i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  Server.stop server2;
  Domain.join daemon2;
  Client.close c2

let test_server_rejects_bad_requests () =
  let dir = temp_dir "accals_daemon_err" in
  let sock = Filename.concat dir "t.sock" in
  let server =
    Server.create
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 1;
        max_concurrent = 1;
        log = false;
      }
  in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_unix_retry sock in
  (* Unknown job / unknown circuit / malformed line each produce an error
     response, and the connection stays usable afterwards. *)
  let r = ok_exn "status" (Client.rpc c (Protocol.Status "j-999999")) in
  check "unknown job rejected" false (Client.ok r);
  let r =
    ok_exn "bad circuit"
      (Client.rpc c
         (Protocol.Submit
            { (e2e_spec "rca32" 0.05) with Protocol.source = Protocol.Named "nope" }))
  in
  check "unknown circuit rejected" false (Client.ok r);
  let r =
    ok_exn "bad blif"
      (Client.rpc c
         (Protocol.Submit
            {
              (e2e_spec "rca32" 0.05) with
              Protocol.source = Protocol.Blif_text ".model broken\n.wat\n";
            }))
  in
  check "malformed blif rejected" false (Client.ok r);
  check "connection still works" true (Client.ping c);
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* The value of the Prometheus sample line that starts with [series]. *)
let prom_value prom series =
  let prefix = series ^ " " in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > n && String.sub l 0 n = prefix)
      (String.split_on_char '\n' prom)
  with
  | Some l -> float_of_string (String.sub l n (String.length l - n))
  | None -> Alcotest.failf "metrics lack %s" series

(* Admission resolves a source an earlier job was admitted with from the
   scheduler's index: repeat submissions of a name or of byte-identical
   BLIF text build no circuit, and a one-byte edit is a new source. *)
let contains s needle =
  let ls = String.length s and ln = String.length needle in
  let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
  go 0

let test_daemon_repeat_sources_build_once () =
  let dir = temp_dir "accals_daemon_index" in
  let sock = Filename.concat dir "t.sock" in
  let server =
    Server.create
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 1;
        max_concurrent = 1;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  let c = Client.connect_unix_retry sock in
  let blif_a =
    ".model tiny\n.inputs a b c d\n.outputs y z\n.names a b n\n11 1\n\
     .names n c y\n1- 1\n-1 1\n.names c d z\n10 1\n.end\n"
  in
  (* One byte apart: z = c & d instead of c & !d. *)
  let blif_b =
    ".model tiny\n.inputs a b c d\n.outputs y z\n.names a b n\n11 1\n\
     .names n c y\n1- 1\n-1 1\n.names c d z\n11 1\n.end\n"
  in
  let inline ?(bound = 0.05) text =
    { (e2e_spec "mtp8" bound) with Protocol.source = Protocol.Blif_text text }
  in
  let submit what spec = fst (ok_exn what (Client.submit c spec)) in
  let finish what id =
    let r = ok_exn what (Client.wait ~timeout:300.0 c id) in
    check_string (what ^ " done") "done" (get_string "state" r);
    get_string "blif" r
  in
  let digest_of id =
    match Json.member "events" (ok_exn "events" (Client.rpc c (Protocol.Events id))) with
    | Some (Json.List (ev :: _)) -> get_string "digest" ev
    | _ -> Alcotest.failf "no submitted event for %s" id
  in
  let builds () =
    let prom =
      get_string "metrics" (ok_exn "metrics" (Client.rpc c Protocol.Metrics))
    in
    let count source =
      prom_value prom
        (Printf.sprintf {|accals_server_circuit_builds_total{source="%s"}|} source)
    in
    int_of_float (count "named" +. count "blif")
  in
  (* Three submits of a name: the first builds and queues, the second
     coalesces onto it in flight, the third hits its finished result. *)
  let m1 = submit "mtp8" (e2e_spec "mtp8" 0.02) in
  let m2 = submit "mtp8 again" (e2e_spec "mtp8" 0.02) in
  let blif_m = finish "mtp8" m1 in
  let m3 = submit "mtp8 once more" (e2e_spec "mtp8" 0.02) in
  check_string "in-flight repeat coalesces" m1 m2;
  check_string "finished repeat hits" m1 m3;
  check_string "repeat returns the cold BLIF" blif_m (finish "mtp8 repeat" m3);
  check_string "named digest" (Network.digest (Bench_suite.load "mtp8"))
    (digest_of m1);
  (* Inline BLIF: identical text resolves to the first job's digest. *)
  let b1 = submit "blif" (inline blif_a) in
  let b2 = submit "blif again" (inline blif_a) in
  let b3 = submit "blif one byte off" (inline blif_b) in
  check_string "identical text coalesces" b1 b2;
  let blif_1 = finish "blif" b1 in
  check_string "identical text returns the cold BLIF" blif_1
    (finish "blif repeat" b2);
  check_string "inline digest" (Network.digest (Blif.parse_string blif_a))
    (digest_of b1);
  check "one-byte variant is its own job" true (b3 <> b1);
  ignore (finish "blif variant" b3);
  check_string "variant digest" (Network.digest (Blif.parse_string blif_b))
    (digest_of b3);
  check "variant digest differs" true (digest_of b3 <> digest_of b1);
  check_int "six submits, three builds" 3 (builds ());
  (* A known source whose job must queue is built for its worker, and
     keys on the digest the index gave. *)
  let q = submit "blif, new bound" (inline ~bound:0.1 blif_a) in
  check "new bound is a new job" true (q <> b1);
  ignore (finish "blif, new bound" q);
  check_string "queued repeat keeps the digest" (digest_of b1) (digest_of q);
  check_int "a queued repeat builds" 4 (builds ());
  (* One HELP line per family; the cache-hit family's covers both of its
     sources. *)
  let prom =
    get_string "metrics" (ok_exn "metrics" (Client.rpc c Protocol.Metrics))
  in
  let helps =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: family :: _ -> Some (family, line)
        | _ -> None)
      (String.split_on_char '\n' prom)
  in
  List.iter
    (fun (family, _) ->
      check_int ("one HELP for " ^ family) 1
        (List.length (List.filter (fun (f, _) -> f = family) helps)))
    helps;
  (match List.assoc_opt "accals_server_cache_hits_total" helps with
   | Some line ->
     check "cache-hit help names memory" true (contains line "memory");
     check "cache-hit help names disk" true (contains line "disk")
   | None -> Alcotest.fail "no HELP for accals_server_cache_hits_total");
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* --- hostile-client behaviour --- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_write fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let boot_server cfg =
  let server = Server.create cfg in
  let daemon = Domain.spawn (fun () -> Server.run server) in
  (server, daemon)

(* A finished job keeps its report and BLIF encoded, and every [result]
   reply splices those bytes in after the view fields.  The reply line
   must still be what encoding the whole reply tree prints: the oracle
   below builds that tree from the [status] reply's fields and the job's
   own cache entry.  Checked for a cold job, a coalesced repeat and a disk
   hit after a restart, each fetched twice; the cache files must be the
   whole entry object as [Json] prints it. *)
let test_result_reply_bytes () =
  let dir = temp_dir "accals_daemon_bytes" in
  let cache_dir = Filename.concat dir "cache" in
  let samples = 256 in
  let sock n = Filename.concat dir (Printf.sprintf "t%d.sock" n) in
  let boot n =
    boot_server
      {
        Server.default_config with
        Server.socket = sock n;
        jobs = 1;
        max_concurrent = 1;
        cache_dir = Some cache_dir;
        default_samples = samples;
        log = false;
      }
  in
  let jobs = [ ("mtp8", 0.02); ("c880", 0.01) ] in
  let key (name, bound) =
    Cache.key ~digest:(Network.digest (Bench_suite.load name))
      ~metric:Metric.Error_rate ~bound ~samples ~seed:1
  in
  let fetch fd ic req =
    raw_write fd (Json.to_string (Protocol.request_to_json req) ^ "\n");
    input_line ic
  in
  let oracle fd ic job id =
    let status =
      match Json.parse_exn (fetch fd ic (Protocol.Status id)) with
      | Json.Obj fields -> fields
      | _ -> Alcotest.fail "status reply is not an object"
    in
    match Cache.find (Cache.create ~dir:cache_dir) (key job) with
    | Some e ->
      Json.to_string
        (Json.Obj
           (status
           @ [ ("report", e.Cache.report); ("blif", Json.String e.Cache.blif) ]))
    | None -> Alcotest.failf "no cache entry for %s" (fst job)
  in
  let check_reply fd ic what job id =
    let tag s = Printf.sprintf "%s %s: %s" (fst job) what s in
    let line = fetch fd ic (Protocol.Result id) in
    check_string (tag "reply equals the encoded reply tree")
      (oracle fd ic job id) line;
    check_string (tag "a second fetch returns the same line") line
      (fetch fd ic (Protocol.Result id));
    line
  in
  let with_daemon n f =
    let server, daemon = boot n in
    let c = Client.connect_unix_retry (sock n) in
    let fd = raw_connect (sock n) in
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Client.close c;
        Server.stop server;
        Domain.join daemon)
      (fun () -> f c fd ic)
  in
  let spec (name, bound) = e2e_spec ~samples name bound in
  let cold =
    with_daemon 1 (fun c fd ic ->
        let ids =
          List.map
            (fun job ->
              let id, cached = ok_exn "submit" (Client.submit c (spec job)) in
              check "cold submit" false cached;
              let again, _ = ok_exn "repeat" (Client.submit c (spec job)) in
              check_string "the repeat coalesces onto the job" id again;
              id)
            jobs
        in
        List.map2
          (fun job id ->
            ignore (ok_exn "wait" (Client.wait ~timeout:300.0 c id));
            let line = check_reply fd ic "cold job" job id in
            let again, cached = ok_exn "repeat" (Client.submit c (spec job)) in
            check "a finished repeat is cached" true cached;
            check_string "a finished repeat coalesces" id again;
            ignore (check_reply fd ic "coalesced repeat" job again);
            line)
          jobs ids)
  in
  List.iter
    (fun job ->
      match Cache.find (Cache.create ~dir:cache_dir) (key job) with
      | None -> Alcotest.failf "no cache entry for %s" (fst job)
      | Some e ->
        let file = Filename.concat cache_dir (key job ^ ".json") in
        check_string (fst job ^ ": cache file is the encoded entry")
          (Json.to_string
             (Json.Obj
                [
                  ("key", Json.String e.Cache.key);
                  ("report", e.Cache.report);
                  ("blif", Json.String e.Cache.blif);
                ])
          ^ "\n")
          (In_channel.with_open_bin file In_channel.input_all))
    jobs;
  with_daemon 2 (fun c fd ic ->
      List.iter2
        (fun job cold_line ->
          let id, cached = ok_exn "resubmit" (Client.submit c (spec job)) in
          check "disk hit after a restart" true cached;
          let line = check_reply fd ic "disk hit" job id in
          let member k l =
            Option.bind (Json.member k (Json.parse_exn l)) Json.string_opt
          in
          check "the disk hit serves the cold job's BLIF" true
            (member "blif" line = member "blif" cold_line))
        jobs cold)

(* A client that sends a request and slams the connection shut before
   reading the response makes the daemon write into a closed socket.
   With SIGPIPE at its default action that would kill the whole daemon
   (here: this test process); ignored, it costs one connection. *)
let test_disconnect_mid_response () =
  let dir = temp_dir "accals_daemon_pipe" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 1;
        max_concurrent = 1;
        log = false;
      }
  in
  let c = Client.connect_unix_retry sock in
  check "daemon up" true (Client.ping c);
  for i = 1 to 20 do
    let fd = raw_connect sock in
    (* Alternate a submit (the review's exact scenario: submit, quit
       before the response) with metrics, whose response is large enough
       to still be mid-write when the close lands. *)
    raw_write fd
      (if i mod 2 = 0 then "{\"req\": \"metrics\"}\n"
       else
         "{\"req\": \"submit\", \"name\": \"nope\", \"metric\": \"ER\", \
          \"bound\": 0.05}\n");
    Unix.close fd
  done;
  Unix.sleepf 0.3;
  check "daemon survived 20 submit-and-quit clients" true (Client.ping c);
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* A client that pipelines requests without ever reading responses must
   not stall the single-threaded select loop: responses are buffered per
   connection (bounded) and other tenants keep getting served. *)
let test_pipelined_backpressure () =
  let dir = temp_dir "accals_daemon_pipeline" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 1;
        max_concurrent = 1;
        log = false;
      }
  in
  let c_probe = Client.connect_unix_retry sock in
  check "daemon up" true (Client.ping c_probe);
  let fd = raw_connect sock in
  let n = 5_000 in
  (* ~400 KB of responses: well past a Unix socket buffer, so the daemon
     must park the excess in the connection's outbox. *)
  let batch = String.concat "" (List.init 50 (fun _ -> "{\"req\": \"ping\"}\n")) in
  for _ = 1 to n / 50 do
    raw_write fd batch
  done;
  check "daemon responsive while a pipelining client leaves responses unread"
    true
    (Client.ping c_probe);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  let ic = Unix.in_channel_of_descr fd in
  let count = ref 0 in
  (try
     for _ = 1 to n do
       ignore (input_line ic);
       incr count
     done
   with End_of_file | Sys_error _ -> ());
  check_int "every pipelined response was eventually delivered" n !count;
  close_in_noerr ic;
  check "daemon still healthy afterwards" true (Client.ping c_probe);
  Server.stop server;
  Domain.join daemon;
  Client.close c_probe

(* Privileged requests over TCP require the shared token; the Unix
   socket is the trusted control plane and never needs one. *)
let test_tcp_token_gate () =
  let dir = temp_dir "accals_daemon_tcp" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        tcp = Some ("127.0.0.1", 0);
        tcp_token = Some "sekrit";
        jobs = 1;
        max_concurrent = 1;
        log = false;
      }
  in
  let port =
    match Server.tcp_port server with
    | Some p -> p
    | None -> Alcotest.fail "daemon did not bind a TCP port"
  in
  let c_unix = Client.connect_unix_retry sock in
  check "unix ping" true (Client.ping c_unix);
  let denied resp =
    match resp with
    | Ok r ->
      (not (Client.ok r))
      && contains (Client.error_message r) "not allowed over TCP"
    | Error _ -> false
  in
  let reaches_handler resp =
    (* Authorization passed: the request fails on its own terms (the job
       does not exist), not on the trust boundary. *)
    match resp with
    | Ok r ->
      (not (Client.ok r)) && contains (Client.error_message r) "unknown job"
    | Error _ -> false
  in
  let tcp_anon = Client.connect_tcp "127.0.0.1" port in
  check "unprivileged over TCP without token: ping" true (Client.ping tcp_anon);
  check "cancel denied over TCP without token" true
    (denied (Client.rpc tcp_anon (Protocol.Cancel "j-1")));
  check "result denied over TCP without token" true
    (denied (Client.rpc tcp_anon (Protocol.Result "j-1")));
  check "shutdown denied over TCP without token" true
    (denied (Client.rpc tcp_anon Protocol.Shutdown));
  check "daemon ignored the unauthorized shutdown" true (Client.ping c_unix);
  let tcp_bad = Client.connect_tcp ~token:"wrong" "127.0.0.1" port in
  check "wrong token denied" true
    (denied (Client.rpc tcp_bad (Protocol.Cancel "j-1")));
  let tcp_ok = Client.connect_tcp ~token:"sekrit" "127.0.0.1" port in
  check "valid token reaches the handler" true
    (reaches_handler (Client.rpc tcp_ok (Protocol.Cancel "j-1")));
  check "unix socket needs no token even for privileged requests" true
    (reaches_handler (Client.rpc c_unix (Protocol.Cancel "j-1")));
  Server.stop server;
  Domain.join daemon;
  List.iter Client.close [ tcp_anon; tcp_bad; tcp_ok; c_unix ];
  (* Without --tcp-token there is no way to authorize over TCP at all. *)
  let server2, daemon2 =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        tcp = Some ("127.0.0.1", 0);
        jobs = 1;
        max_concurrent = 1;
        log = false;
      }
  in
  let port2 =
    match Server.tcp_port server2 with
    | Some p -> p
    | None -> Alcotest.fail "daemon did not bind a TCP port"
  in
  let c2_unix = Client.connect_unix_retry sock in
  let tcp2 = Client.connect_tcp ~token:"sekrit" "127.0.0.1" port2 in
  check "tokenless daemon refuses privileged TCP regardless of token" true
    (match Client.rpc tcp2 (Protocol.Cancel "j-1") with
     | Ok r ->
       (not (Client.ok r))
       && contains (Client.error_message r) "without --tcp-token"
     | Error _ -> false);
  Server.stop server2;
  Domain.join daemon2;
  Client.close tcp2;
  Client.close c2_unix

(* --- overload protection and fault containment --- *)

(* Wall-clock deadlines end to end, against a single-slot daemon:
   a job too big to reach a cooperative checkpoint before its deadline is
   failed by the watchdog and its slot reclaimed after the grace period
   (the worker domain cannot be killed, only abandoned); a queued job
   whose deadline passes before a slot frees is failed without ever
   starting; and the reclaimed slot produces bit-identical results. *)
let test_daemon_deadline () =
  let dir = temp_dir "accals_daemon_deadline" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 2;
        max_concurrent = 1;
        deadline_grace = 0.5;
        cache_dir = Some (Filename.concat dir "cache");
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c = Client.connect_unix_retry sock in
  let id_wedge, _ =
    ok_exn "submit wedge"
      (Client.submit c (e2e_spec ~samples:4096 ~deadline:0.5 "div" 0.01))
  in
  Unix.sleepf 0.3;
  (* Queued behind the wedge with a deadline it cannot make. *)
  let id_queued, _ =
    ok_exn "submit queued"
      (Client.submit c (e2e_spec ~seed:7 ~deadline:0.2 "rca32" 0.05))
  in
  let r_q = ok_exn "wait queued" (Client.wait ~timeout:30.0 c id_queued) in
  check_string "queued job failed" "failed" (get_string "state" r_q);
  check_string "queued job is deadline_exceeded" "deadline_exceeded"
    (get_string "failure" r_q);
  check "queued job never started" true
    (Json.member "wait_s" r_q = Some Json.Null);
  let r_w = ok_exn "wait wedge" (Client.wait ~timeout:30.0 c id_wedge) in
  check_string "wedged job failed" "failed" (get_string "state" r_w);
  check_string "wedged job is deadline_exceeded" "deadline_exceeded"
    (get_string "failure" r_w);
  (* Past deadline + grace the slot is usable again even though the
     abandoned domain is still crunching. *)
  let id_ok, _ =
    ok_exn "submit after reap" (Client.submit c (e2e_spec "rca32" 0.05))
  in
  let r_ok = ok_exn "wait after reap" (Client.wait ~timeout:300.0 c id_ok) in
  check_string "reclaimed slot runs jobs" "done" (get_string "state" r_ok);
  check_string "bit-identical result from the reclaimed slot"
    (one_shot "rca32" 0.05) (get_string "blif" r_ok);
  let h = ok_exn "health" (Client.health c) in
  let int_field f =
    match Json.member f h with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "health missing %s" f
  in
  check "deadline counter covers both phases" true
    (int_field "deadline_exceeded_total" >= 2);
  check "fd count exposed for soak checks" true
    (int_field "open_fds" > 0 || int_field "open_fds" = -1);
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* Every terminal path is counted once, before status shows it: on a
   one-slot daemon a job expires while running, one is cancelled while
   queued, one expires while queued and one finishes.  Right after the
   waits — no polling — the finished-job counters and health agree with
   the job list. *)
let test_daemon_outcomes_counted () =
  let dir = temp_dir "accals_daemon_outcomes" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 2;
        max_concurrent = 1;
        deadline_grace = 0.5;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c = Client.connect_unix_retry sock in
  let tenant = "pinned" in
  let submit what spec = fst (ok_exn what (Client.submit c spec)) in
  let id_run =
    submit "running expiry"
      (e2e_spec ~tenant ~samples:4096 ~deadline:0.5 "div" 0.01)
  in
  Unix.sleepf 0.3;
  let id_cancel = submit "queued cancel" (e2e_spec ~tenant ~seed:2 "rca32" 0.05) in
  let id_expire =
    submit "queued expiry" (e2e_spec ~tenant ~seed:7 ~deadline:0.1 "rca32" 0.05)
  in
  let id_done = submit "normal" (e2e_spec ~tenant "mtp8" 0.02) in
  let cancel = ok_exn "cancel" (Client.rpc c (Protocol.Cancel id_cancel)) in
  check_string "cancelled while queued" "cancelled" (get_string "cancel" cancel);
  let state id =
    get_string "state" (ok_exn "wait" (Client.wait ~timeout:300.0 c id))
  in
  check_string "running expiry" "failed" (state id_run);
  check_string "queued cancel" "cancelled" (state id_cancel);
  check_string "queued expiry" "failed" (state id_expire);
  check_string "normal job" "done" (state id_done);
  let prom = get_string "metrics" (ok_exn "metrics" (Client.rpc c Protocol.Metrics)) in
  let finished st =
    let prefix =
      Printf.sprintf {|accals_server_jobs_finished_total{state="%s"} |} st
    in
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix line then
          int_of_float
            (float_of_string
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix)))
        else acc)
      0
      (String.split_on_char '\n' prom)
  in
  let listed st =
    match Json.member "jobs" (ok_exn "list" (Client.rpc c Protocol.List)) with
    | Some (Json.List jobs) ->
      List.length (List.filter (fun j -> get_string "state" j = st) jobs)
    | _ -> Alcotest.fail "list response missing jobs"
  in
  List.iter
    (fun (st, n) ->
      check_int ("finished " ^ st) n (finished st);
      check_int ("listed " ^ st) n (listed st))
    [ ("failed", 2); ("cancelled", 1); ("done", 1) ];
  let h = ok_exn "health" (Client.health c) in
  check_int "health deadline_exceeded_total" 2
    (match Json.member "deadline_exceeded_total" h with
     | Some (Json.Int n) -> n
     | _ -> Alcotest.fail "health missing deadline_exceeded_total");
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* Crash-loop quarantine end to end: with every pool task failing, each
   worker dies with the runtime's exception; at the threshold the
   fingerprint is refused with [code = "quarantined"], counted once in
   health and recorded as an incident. *)
let test_daemon_quarantine () =
  let dir = temp_dir "accals_daemon_quarantine" in
  let sock = Filename.concat dir "t.sock" in
  let state_dir = Filename.concat dir "state" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 2;
        max_concurrent = 1;
        quarantine_threshold = 2;
        state_dir = Some state_dir;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c = Client.connect_unix_retry sock in
  let spec = e2e_spec "mtp8" 0.02 in
  let before = Fault.current () in
  Fun.protect
    ~finally:(fun () ->
      match before with Some s -> Fault.arm s | None -> Fault.disarm ())
    (fun () ->
      Fault.arm { (Fault.default ~seed:1) with Fault.every = 1; attempts = 1000 };
      for attempt = 1 to 2 do
        let id, _ = ok_exn "submit" (Client.submit c spec) in
        let r = ok_exn "wait" (Client.wait ~timeout:60.0 c id) in
        check_string (Printf.sprintf "worker %d died" attempt) "failed"
          (get_string "state" r)
      done);
  let refused = ok_exn "third submit" (Client.rpc c (Protocol.Submit spec)) in
  check "third submit refused" false (Client.ok refused);
  check "refusal is structured" true
    (Client.error_code refused = Some "quarantined"
    && Client.retry_after refused <> None);
  let h = ok_exn "health" (Client.health c) in
  check "quarantine counted once" true
    (Json.member "quarantined_total" h = Some (Json.Int 1));
  Server.stop server;
  Domain.join daemon;
  Client.close c;
  let incidents =
    In_channel.with_open_text (Filename.concat state_dir "incidents.jsonl")
      In_channel.input_all
  in
  check "quarantine incident recorded" true
    (List.exists
       (fun line -> String.length line > 0
         && Json.member "kind" (Result.get_ok (Json.parse line))
            = Some (Json.String "job_quarantined"))
       (String.split_on_char '\n' incidents))

(* Admission control end to end: per-tenant and global queue bounds shed
   with a structured [overloaded] + [retry_after_ms] rejection (never a
   silent drop or a hang), health stays responsive at the bound, and a
   retrying client is eventually admitted once capacity frees. *)
let test_daemon_overload () =
  let dir = temp_dir "accals_daemon_overload" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 2;
        max_concurrent = 1;
        max_queue = 2;
        tenant_max_queued = 1;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c = Client.connect_unix_retry sock in
  (* Occupy the only slot with a long job. *)
  let id_hog, _ =
    ok_exn "submit hog"
      (Client.submit c (e2e_spec ~tenant:"hog" ~samples:2048 "div" 0.01))
  in
  Unix.sleepf 0.4;
  (* Tenant t1 fills its per-tenant queue quota... *)
  let id_q1, _ =
    ok_exn "queue t1"
      (Client.submit c (e2e_spec ~tenant:"t1" ~seed:11 "rca32" 0.05))
  in
  (* ...so its next submission is shed — while other tenants still fit. *)
  let r_t1 =
    ok_exn "flood t1"
      (Client.rpc c
         (Protocol.Submit (e2e_spec ~tenant:"t1" ~seed:12 "rca32" 0.05)))
  in
  check "tenant-quota shed is a rejection" false (Client.ok r_t1);
  check "tenant-quota shed carries the overloaded code" true
    (Client.error_code r_t1 = Some "overloaded");
  let id_q2, _ =
    ok_exn "queue t2"
      (Client.submit c (e2e_spec ~tenant:"t2" ~seed:21 "rca32" 0.05))
  in
  (* The global queue is now at its bound: everyone is shed, with a hint. *)
  let r_t3 =
    ok_exn "flood t3"
      (Client.rpc c
         (Protocol.Submit (e2e_spec ~tenant:"t3" ~seed:31 "rca32" 0.05)))
  in
  check "queue-full shed is a rejection" false (Client.ok r_t3);
  check "queue-full shed carries the overloaded code" true
    (Client.error_code r_t3 = Some "overloaded");
  (match Client.retry_after r_t3 with
  | Some s -> check "retry_after_ms hint is sane" true (s >= 0.1 && s <= 60.0)
  | None -> Alcotest.fail "overloaded response missing retry_after_ms");
  (* The daemon answers health probes while saturated, and the books
     balance: sheds were rejected, not silently dropped from the queue. *)
  let h = ok_exn "health at the bound" (Client.health c) in
  let int_field f =
    match Json.member f h with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "health missing %s" f
  in
  check_int "queue depth at the bound" 2 (int_field "queue_depth");
  check_int "hog still running" 1 (int_field "running");
  check_int "both sheds counted" 2 (int_field "shed_total");
  (* The gauges read the same active-job totals as health. *)
  let prom =
    get_string "metrics" (ok_exn "metrics at the bound" (Client.rpc c Protocol.Metrics))
  in
  check_int "queue depth gauge matches health" 2
    (int_of_float (prom_value prom "accals_server_queue_depth"));
  check_int "running gauge matches health" 1
    (int_of_float (prom_value prom "accals_server_running_jobs"));
  (* Free the slot from a second connection while this client retries
     against the full queue: the retry must eventually be admitted. *)
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 1.0;
        let c2 = Client.connect_unix sock in
        ignore (Client.rpc c2 (Protocol.Cancel id_hog));
        Client.close c2)
  in
  let id_retry, _ =
    ok_exn "submit_retry against a full queue"
      (Client.submit_retry
         ~policy:{ Backoff.default with Backoff.max_total = 240.0 }
         c
         (e2e_spec ~tenant:"t3" ~seed:31 "rca32" 0.05))
  in
  Domain.join canceller;
  let wait_done what id =
    let r = ok_exn what (Client.wait ~timeout:300.0 c id) in
    check_string (what ^ " completes") "done" (get_string "state" r)
  in
  wait_done "admitted t1 job" id_q1;
  wait_done "admitted t2 job" id_q2;
  wait_done "retried t3 job" id_retry;
  Server.stop server;
  Domain.join daemon;
  Client.close c

(* Fd governor: with an impossible [fd_reserve] every connection is over
   the descriptor budget. The daemon must still accept each one just long
   enough to hand it a structured resource_exhausted error — never a
   connection reset, never a crashed accept loop — and keep serving its
   control plane (stop/join still work). *)
let test_daemon_fd_governor_sheds () =
  let dir = temp_dir "accals_daemon_fd" in
  let sock = Filename.concat dir "t.sock" in
  let server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock;
        jobs = 1;
        fd_reserve = 1_000_000;
        log = false;
      }
  in
  (* The shed error arrives unprompted — the daemon writes it straight
     from the accept path — so read it without sending anything (a sent
     request could race the daemon's close into EPIPE). *)
  let shed_once n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect ~finally:(fun () -> close_in_noerr ic)
    @@ fun () ->
    let r =
      match Json.parse (input_line ic) with
      | Ok v -> v
      | Error e -> Alcotest.failf "connection %d: bad shed response: %s" n e
      | exception End_of_file ->
        Alcotest.failf "connection %d closed without a shed response" n
    in
    check (Printf.sprintf "connection %d refused" n) false (Client.ok r);
    check (Printf.sprintf "connection %d carries the code" n) true
      (Client.error_code r = Some "resource_exhausted");
    match Client.retry_after r with
    | Some s ->
      check (Printf.sprintf "connection %d retry hint sane" n) true
        (s >= 0.1 && s <= 60.0)
    | None -> Alcotest.fail "shed response missing retry_after_ms"
  in
  (* Every connection of a sustained flood is shed the same way; the
     daemon survives all of them. *)
  for n = 1 to 5 do shed_once n done;
  Server.stop server;
  Domain.join daemon;
  check "socket unlinked on clean shutdown" false (Sys.file_exists sock)

(* Restart re-admits the checkpointed queue through the same admission
   control: a daemon restarted with a tighter queue bound sheds the
   excess instead of resurrecting jobs past its limits. *)
let test_daemon_restart_admission () =
  let dir = temp_dir "accals_daemon_restartq" in
  let sock n = Filename.concat dir (Printf.sprintf "t%d.sock" n) in
  let state_dir = Filename.concat dir "state" in
  let _server, daemon =
    boot_server
      {
        Server.default_config with
        Server.socket = sock 1;
        jobs = 2;
        max_concurrent = 1;
        state_dir = Some state_dir;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c = Client.connect_unix_retry (sock 1) in
  (* One running + two queued jobs at shutdown: three checkpointed specs. *)
  let _ =
    ok_exn "hog"
      (Client.submit c (e2e_spec ~tenant:"r" ~samples:2048 "div" 0.01))
  in
  let _ =
    ok_exn "q1" (Client.submit c (e2e_spec ~tenant:"r" ~seed:41 "rca32" 0.05))
  in
  let _ =
    ok_exn "q2" (Client.submit c (e2e_spec ~tenant:"r" ~seed:42 "rca32" 0.05))
  in
  let bye = ok_exn "shutdown" (Client.rpc c Protocol.Shutdown) in
  check "shutdown acknowledged" true (Client.ok bye);
  Domain.join daemon;
  Client.close c;
  let server2, daemon2 =
    boot_server
      {
        Server.default_config with
        Server.socket = sock 2;
        jobs = 2;
        max_concurrent = 1;
        max_queue = 1;
        state_dir = Some state_dir;
        default_samples = e2e_samples;
        log = false;
      }
  in
  let c2 = Client.connect_unix_retry (sock 2) in
  let h = ok_exn "health after restart" (Client.health c2) in
  (match Json.member "shed_total" h with
  | Some (Json.Int n) -> check_int "restore shed the excess" 2 n
  | _ -> Alcotest.fail "health missing shed_total");
  let l = ok_exn "list" (Client.rpc c2 Protocol.List) in
  (match Json.member "jobs" l with
  | Some (Json.List jobs) ->
    check_int "exactly the admissible prefix was restored" 1
      (List.length jobs)
  | _ -> Alcotest.fail "list endpoint");
  Server.stop server2;
  Domain.join daemon2;
  Client.close c2

(* Resource-exhaustion soak. A baseline pass runs with no budgets and no
   faults. Then a daemon with a tight memory budget, a disk governor that
   believes the state dir is nearly full, and ENOSPC on about a fifth of
   its governed writes takes the same flood and is stopped with the tail
   still queued. The state dir it leaves must hold no corrupt cache entry
   and no temp file, and a restarted daemon (faults disarmed) must answer
   every job bit-identically to the baseline: budgets and faults cost
   time, never correctness. *)
let test_daemon_resource_soak () =
  let dir = temp_dir "accals_daemon_soak" in
  let sock n = Filename.concat dir (Printf.sprintf "t%d.sock" n) in
  let cache_dir = Filename.concat dir "cache" in
  let state_dir = Filename.concat dir "state" in
  (* Tight but survivable: a fixed slack above the heap already grown, so
     the engine governor sees real pressure without shedding outright. *)
  let heap_mb =
    (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)
  in
  let boot n ~budgeted =
    boot_server
      {
        Server.default_config with
        Server.socket = sock n;
        jobs = 2;
        max_concurrent = 2;
        cache_dir =
          Some (if budgeted then cache_dir else Filename.concat dir "base");
        state_dir = (if budgeted then Some state_dir else None);
        default_samples = 256;
        max_memory_mb = (if budgeted then heap_mb + 512 else 0);
        (* A petabyte of required headroom: every free-space probe reports
           "nearly full", so the evict-before-store path runs every time. *)
        statedir_headroom_mb = (if budgeted then 1 lsl 30 else 0);
        log = false;
      }
  in
  let workload =
    [
      ("rca32", 0.05); ("mtp8", 0.02); ("cla32", 0.05); ("wal8", 0.02);
      ("ksa32", 0.05); ("c880", 0.03); ("rca32", 0.02); ("mtp8", 0.05);
    ]
  in
  let submit_all c =
    List.map
      (fun (name, bound) ->
        fst
          (ok_exn ("submit " ^ name)
             (Client.submit c
                (e2e_spec ~budget:10.0 ~tenant:"soak" ~samples:256 name bound))))
      workload
  in
  let blifs c ids =
    List.map
      (fun id ->
        let r = ok_exn ("wait " ^ id) (Client.wait ~timeout:240.0 c id) in
        Option.bind (Json.member "blif" r) Json.string_opt)
      ids
  in
  let pass n ~budgeted =
    let server, daemon = boot n ~budgeted in
    let c = Client.connect_unix_retry (sock n) in
    let r = blifs c (submit_all c) in
    Server.stop server;
    Domain.join daemon;
    Client.close c;
    r
  in
  let baseline = pass 1 ~budgeted:false in
  let injected =
    with_io_faults "seed:7,write:enospc%5" (fun () ->
        let server, daemon = boot 2 ~budgeted:true in
        let c = Client.connect_unix_retry (sock 2) in
        (* Let the head of the flood land, then stop with the tail still
           queued: the drain checkpoints the queue through the same
           faulted writes. *)
        (match submit_all c with
        | id1 :: id2 :: _ ->
          ignore (Client.wait ~timeout:240.0 c id1);
          ignore (Client.wait ~timeout:240.0 c id2)
        | _ -> ());
        Server.stop server;
        Domain.join daemon;
        Client.close c;
        Fault_io.injected_count ())
  in
  check "ENOSPC faults were injected" true (injected > 0);
  (* Cold inspection: every cache entry parses and matches its key
     ([Cache.find] deletes it otherwise), and no atomic-write temp file
     leaked anywhere. *)
  let count p d =
    Array.fold_left
      (fun n f -> if p f then n + 1 else n)
      0
      (try Sys.readdir d with Sys_error _ -> [||])
  in
  let cache = Cache.create ~dir:cache_dir in
  let corrupt f =
    Filename.check_suffix f ".json"
    && Cache.find cache (Filename.remove_extension f) = None
  in
  let is_tmp f =
    List.exists (String.starts_with ~prefix:"tmp") (String.split_on_char '.' f)
  in
  check_int "no corrupt cache entries" 0 (count corrupt cache_dir);
  check_int "no temp residue" 0 (count is_tmp cache_dir + count is_tmp state_dir);
  (* Recovery: same budgets, faults disarmed; the restored queue and the
     surviving cache absorb the resubmitted flood. *)
  let recovered = pass 3 ~budgeted:true in
  check "recovery complete" true (List.for_all Option.is_some recovered);
  check "recovery bit-identical to the baseline" true (recovered = baseline)

let suite =
  [
    ( "server digest",
      [
        Alcotest.test_case "invariant under renumbering" `Quick
          test_digest_renumbering;
        Alcotest.test_case "sensitive to logic edits" `Quick
          test_digest_sensitivity;
        Alcotest.test_case "collision-resistant (sha-256 vectors)" `Quick
          test_digest_cryptographic;
        Alcotest.test_case "sha-256 word feeding at every fill" `Quick
          test_sha256_feed_int;
        test_sha256_feed_string_chunks;
        Alcotest.test_case "golden digests" `Quick test_digest_golden;
        Alcotest.test_case "golden synth10k digest" `Quick test_synth10k_digest_golden;
      ] );
    ( "server json hardening",
      [ Alcotest.test_case "untrusted input limits" `Quick test_json_hardening ] );
    ( "server protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "request validation" `Quick test_protocol_validation;
        Alcotest.test_case "version gate" `Quick test_protocol_versioning;
      ] );
    ( "server cache",
      [
        Alcotest.test_case "store/find/corrupt/reopen" `Quick
          test_cache_roundtrip;
        Alcotest.test_case "key composition" `Quick test_cache_keys;
        Alcotest.test_case "fd hygiene on corrupt entries" `Quick
          test_cache_fd_hygiene;
        Alcotest.test_case "size-capped LRU eviction" `Quick
          test_cache_eviction;
        Alcotest.test_case "store-time eviction never overshoots" `Quick
          test_cache_store_evicts_at_cap;
        Alcotest.test_case "store under ENOSPC keeps the old entry" `Quick
          test_cache_store_enospc_keeps_old_entry;
      ] );
    ( "server backoff",
      [
        Alcotest.test_case "deterministic jitter and budgets" `Quick
          test_backoff;
      ] );
    ( "server scheduler",
      [
        Alcotest.test_case "priority + fair share + fifo" `Quick
          test_scheduler_policy;
        Alcotest.test_case "lifecycle and cancellation" `Quick
          test_scheduler_lifecycle;
        Alcotest.test_case "coalescing rules" `Quick test_scheduler_coalescing;
        Alcotest.test_case "unguessable job ids" `Quick test_scheduler_job_ids;
        Alcotest.test_case "per-tenant running quotas" `Quick
          test_scheduler_quota;
        Alcotest.test_case "deadline expiry in both phases" `Quick
          test_scheduler_deadline;
        Alcotest.test_case "queued settle releases the circuit" `Quick
          test_scheduler_circuit_release;
        Alcotest.test_case "history differential" `Quick
          test_scheduler_history_differential;
      ] );
    ( "server graceful",
      [
        Alcotest.test_case "signals, codes, hooks" `Quick test_graceful;
        Alcotest.test_case "flush hooks under injected write failures"
          `Quick test_graceful_flush_under_write_failure;
      ] );
    ( "server daemon",
      [
        Alcotest.test_case "e2e: submit/cache/cancel/metrics/restart" `Slow
          test_daemon_e2e;
        Alcotest.test_case "result replies are byte-identical" `Quick
          test_result_reply_bytes;
        Alcotest.test_case "error handling on the wire" `Quick
          test_server_rejects_bad_requests;
        Alcotest.test_case "repeat sources build once" `Quick
          test_daemon_repeat_sources_build_once;
        Alcotest.test_case "survives disconnect mid-response (SIGPIPE)" `Quick
          test_disconnect_mid_response;
        Alcotest.test_case "pipelining client cannot stall the loop" `Quick
          test_pipelined_backpressure;
        Alcotest.test_case "TCP privilege gate (--tcp-token)" `Quick
          test_tcp_token_gate;
        Alcotest.test_case "deadline watchdog reclaims a wedged slot" `Slow
          test_daemon_deadline;
        Alcotest.test_case "every terminal path counted once" `Slow
          test_daemon_outcomes_counted;
        Alcotest.test_case "crash loop quarantines the fingerprint" `Slow
          test_daemon_quarantine;
        Alcotest.test_case "overload shed + retry_after + retry" `Slow
          test_daemon_overload;
        Alcotest.test_case "fd governor sheds with a structured error"
          `Quick test_daemon_fd_governor_sheds;
        Alcotest.test_case "restart re-admits through admission control" `Slow
          test_daemon_restart_admission;
        Alcotest.test_case "resource soak: budgets, ENOSPC, kill, recover"
          `Slow test_daemon_resource_soak;
      ] );
  ]
