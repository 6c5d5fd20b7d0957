(* Layer probes that time a library call directly, outside any workload's
   timed body: the interchange readers and the result cache. *)

open Accals_network
module Bench_suite = Accals_circuits.Bench_suite
module Blif = Accals_io.Blif
module Aig = Accals_aig.Aig
module Aiger = Accals_aig.Aiger
module Cache = Accals_server.Cache

type io = {
  blif_parse_s : float;
  blif_mb_per_s : float;
  aiger_parse_s : float;
  blif_node_ratio : float;
  aiger_node_ratio : float;
  nodes : int;
  blif_nodes : int;
  aiger_nodes : int;
}

(* Parse the BLIF and AIGER texts of the largest registered circuit and
   record how much a round trip through each format grows it. *)
let io () =
  let net = Bench_suite.load "synth100k" in
  let blif = Blif.to_string net in
  let aiger = Aiger.to_string (Aig.of_network net) in
  let from_blif, blif_parse_s, _ = Sample.timed (fun () -> Blif.parse_string blif) in
  let from_aiger, aiger_parse_s, _ = Sample.timed (fun () -> Aiger.parse_string aiger) in
  let nodes = Network.num_nodes net in
  let blif_nodes = Network.num_nodes from_blif in
  let aiger_nodes = Network.num_nodes (Aig.to_network from_aiger) in
  let ratio n = float_of_int n /. float_of_int nodes in
  {
    blif_parse_s;
    blif_mb_per_s = float_of_int (String.length blif) /. 1e6 /. blif_parse_s;
    aiger_parse_s;
    blif_node_ratio = ratio blif_nodes;
    aiger_node_ratio = ratio aiger_nodes;
    nodes;
    blif_nodes;
    aiger_nodes;
  }

type cache = { store_ms : float list; find_ms : float list; digest_s : float }

(* Store every entry into a scratch cache, then look each one up. The
   digest that content-addresses an entry is timed on its own. *)
let cache ~dir entries =
  let c = Cache.create ~dir in
  let ms f = let v, w, _ = Sample.timed f in (v, w *. 1000.0) in
  let store_ms = List.map (fun (_, e) -> snd (ms (fun () -> Cache.store c e))) entries in
  let digest_s =
    Sample.sum
      (List.map (fun (net, _) -> let _, w, _ = Sample.timed (fun () -> Network.digest net) in w) entries)
  in
  let find_ms =
    List.map
      (fun (_, (e : Cache.entry)) ->
        let found, w = ms (fun () -> Cache.find c e.Cache.key) in
        match found with
        | Some f when f.Cache.blif = e.Cache.blif -> w
        | _ -> failwith "cache probe: lookup did not return the stored entry")
      entries
  in
  { store_ms; find_ms; digest_s }
