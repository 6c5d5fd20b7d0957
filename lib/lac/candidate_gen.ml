open Accals_network
module Bitvec = Accals_bitvec.Bitvec
module Truth = Accals_twolevel.Truth
module Qm = Accals_twolevel.Qm
module Sop_synth = Accals_twolevel.Sop_synth
module Cut_enum = Accals_twolevel.Cut_enum

let default_window = 24
let default_wires_per_target = 6
let default_pairs_per_target = 6

type config = {
  window : int;
  wires_per_target : int;
  pairs_per_target : int;
  triples_per_target : int;
  global_wires : int;
  wire_distance_fraction : float;
  sops_per_target : int;
  cut_size : int;
  cuts_per_node : int;
}

let default_config =
  {
    window = default_window;
    wires_per_target = default_wires_per_target;
    pairs_per_target = default_pairs_per_target;
    triples_per_target = 4;
    global_wires = 4;
    wire_distance_fraction = 0.25;
    sops_per_target = 2;
    cut_size = 4;
    cuts_per_node = 4;
  }

(* Global SASIMI candidates: buckets of signals sharing a signature prefix
   (and, separately, the complemented prefix) find almost-identical signals
   far outside the structural window. *)
let similarity_buckets (ctx : Round_ctx.t) =
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun id ->
      let key = Bitvec.prefix_word ctx.sigs.(id) in
      let prev = try Hashtbl.find buckets key with Not_found -> [] in
      Hashtbl.replace buckets key (id :: prev))
    ctx.order;
  buckets

(* Per-target scratch, created once per [generate] call (sequential) or
   per chunk (parallel) and never shared between domains. Every field is
   pure scratch: no per-target result depends on what earlier targets left
   in it. *)
type scratch = {
  mffc : Mffc.t;
  tfo : Structure.tfo_probe;
  seen : int array;  (** window membership: [seen.(id) = window_stamp] *)
  mutable window_stamp : int;
  gate : Bitvec.t;  (** a target's complement, or a pair/triple function *)
  negated : Bitvec.t array;  (** complemented cut leaves *)
  products : Bitvec.t array;  (** per-level partial minterm products *)
}

let scratch (ctx : Round_ctx.t) =
  let n = Array.length ctx.fanout_counts in
  let samples = ctx.patterns.Sim.count in
  {
    mffc = Mffc.create ctx.net ~live:ctx.live ~fanout_counts:ctx.fanout_counts;
    tfo = Structure.tfo_probe ctx.net ~topo_pos:ctx.topo_pos;
    seen = Array.make n 0;
    window_stamp = 0;
    gate = Bitvec.create samples;
    negated = Array.init Truth.max_vars (fun _ -> Bitvec.create samples);
    products = Array.init Truth.max_vars (fun _ -> Bitvec.create samples);
  }

let global_matches s buckets (ctx : Round_ctx.t) config target =
  if config.global_wires = 0 then []
  else begin
    let tsig = ctx.sigs.(target) in
    let direct = try Hashtbl.find buckets (Bitvec.prefix_word tsig) with Not_found -> [] in
    let inverted =
      Bitvec.lognot_into tsig ~dst:s.gate;
      try Hashtbl.find buckets (Bitvec.prefix_word s.gate) with Not_found -> []
    in
    let rec take_others n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest ->
        if x = target then take_others n rest else x :: take_others (n - 1) rest
    in
    take_others config.global_wires direct @ take_others config.global_wires inverted
  end

(* Structural window around [target]: transitive fanins (BFS) plus siblings
   (other fanins of the target's fanouts), capped at [config.window]. *)
let window_of s (ctx : Round_ctx.t) config target =
  let net = ctx.net in
  s.window_stamp <- s.window_stamp + 1;
  let stamp = s.window_stamp in
  let seen id = s.seen.(id) = stamp in
  s.seen.(target) <- stamp;
  let result = ref [] in
  let count = ref 0 in
  let push id =
    if (not (seen id)) && ctx.live.(id) && !count < config.window then begin
      s.seen.(id) <- stamp;
      result := id :: !result;
      incr count
    end
  in
  (* Siblings first: cheap shared logic nearby. *)
  Array.iter
    (fun fanout -> Array.iter push (Network.fanins net fanout))
    ctx.fanouts.(target);
  (* BFS through fanins. *)
  let queue = Queue.create () in
  Queue.add target queue;
  while (not (Queue.is_empty queue)) && !count < config.window do
    let id = Queue.pop queue in
    Array.iter
      (fun f ->
        if not (seen f) then begin
          push f;
          Queue.add f queue
        end)
      (Network.fanins net id)
  done;
  !result

(* Sampled probability of each cut-input minterm, from leaf signatures.
   The products are built depth-first over a tree whose level [i] ANDs in
   leaf [i]'s literal: 4 + 8 + ... + 2^k ANDs for [k] leaves, in
   [s.products]. *)
let minterm_probabilities s (ctx : Round_ctx.t) leaves =
  let samples = ctx.patterns.Sim.count in
  let vars = Array.length leaves in
  Array.iteri
    (fun i leaf -> Bitvec.lognot_into ctx.sigs.(leaf) ~dst:s.negated.(i))
    leaves;
  let probs = Array.make (Truth.rows vars) 0.0 in
  let rec expand i m prefix =
    if i = vars then
      probs.(m) <-
        float_of_int (Bitvec.popcount prefix) /. float_of_int samples
    else begin
      let branch literal bit =
        let product =
          if i = 0 then literal
          else begin
            Bitvec.logand_into prefix literal ~dst:s.products.(i);
            s.products.(i)
          end
        in
        expand (i + 1) (m lor (bit lsl i)) product
      in
      branch s.negated.(i) 0;
      branch ctx.sigs.(leaves.(i)) 1
    end
  in
  (* Level 0 takes the literal itself; its [prefix] is never read. *)
  expand 0 0 s.gate;
  probs

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* The [k] items with the smallest [fst], ties in list order. *)
let take_best k items =
  List.map snd (take k (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) items))

(* SOP rewriting candidates for one target: re-minimize the cut function
   exactly, and with the rarest minterms declared don't-care (the
   approximate-cut idea of [15]). *)
let sop_candidates s (ctx : Round_ctx.t) config cone target cuts_of_target =
  let net = ctx.net in
  let results = ref [] in
  List.iter
    (fun leaves ->
      if Array.length leaves >= 2 && Array.length leaves <= Truth.max_vars then begin
        match Truth.of_cone net ~leaves ~root:target with
        | exception Invalid_argument _ -> ()
        | truth ->
          let vars = Array.length leaves in
          let probs = minterm_probabilities s ctx leaves in
          let order =
            let idx = Array.init (Truth.rows vars) (fun i -> i) in
            Array.sort (fun a b -> compare probs.(a) probs.(b)) idx;
            idx
          in
          let dc_of count =
            let dc = ref 0 in
            for i = 0 to count - 1 do
              dc := Truth.set !dc order.(i) true
            done;
            !dc
          in
          let freed = Mffc.freed_area s.mffc cone (Array.to_list leaves) in
          let consider dc =
            let on = truth land lnot dc land Truth.mask vars in
            let cubes = Qm.minimize ~vars ~on ~dc () in
            let gain = freed -. Sop_synth.estimated_area cubes in
            if gain > 0.0 then
              results :=
                (gain, Lac.make ~target (Lac.Sop { leaves; cubes }) ~area_gain:gain)
                :: !results
          in
          consider 0;
          consider (dc_of 1);
          consider (dc_of 2);
          if vars >= 3 then consider (dc_of 4)
      end)
    cuts_of_target;
  (* Largest gains first; dedup identical covers. *)
  let sorted =
    List.sort_uniq
      (fun (ga, la) (gb, lb) ->
        match compare gb ga with 0 -> compare la.Lac.kind lb.Lac.kind | c -> c)
      !results
  in
  List.map snd (take config.sops_per_target sorted)

(* 2-input resubstitution over the closest pool signals. An op's distance
   is only computed when its gain is positive; a complemented op's distance
   is [samples] minus the plain op's, as signatures carry no padding bits. *)
let pair_candidates s (ctx : Round_ctx.t) config cone target shortlist =
  let samples = ctx.patterns.Sim.count in
  let tsig = ctx.sigs.(target) in
  let found = ref [] in
  let consider a b =
    let freed = Mffc.freed_area s.mffc cone [ a; b ] in
    let gain op = freed -. Cost.gate_area op 2 in
    let distance op complement combine =
      if gain op > 0.0 || gain complement > 0.0 then begin
        combine ctx.sigs.(a) ctx.sigs.(b) ~dst:s.gate;
        Bitvec.hamming tsig s.gate
      end
      else 0
    in
    let d_and = distance Gate.And Gate.Nand Bitvec.logand_into in
    let d_or = distance Gate.Or Gate.Nor Bitvec.logor_into in
    let d_xor = distance Gate.Xor Gate.Xnor Bitvec.logxor_into in
    let emit op d =
      let gain = gain op in
      if gain > 0.0 then
        found := (d, Lac.make ~target (Lac.Gate2 (op, a, b)) ~area_gain:gain) :: !found
    in
    emit Gate.And d_and;
    emit Gate.Or d_or;
    emit Gate.Xor d_xor;
    emit Gate.Nand (samples - d_and);
    emit Gate.Nor (samples - d_or);
    emit Gate.Xnor (samples - d_xor)
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter (fun b -> if a <> b then consider a b) rest;
      pairs rest
  in
  pairs shortlist;
  take_best config.pairs_per_target !found

(* 3-input resubstitution (ALSRAC with k = 3): AND/OR/XOR trees and muxes
   over the closest pool signals. *)
let triple_candidates s (ctx : Round_ctx.t) config cone target shortlist =
  let tsig = ctx.sigs.(target) in
  let found = ref [] in
  let consider a b c =
    let freed = Mffc.freed_area s.mffc cone [ a; b; c ] in
    let emit op x y z =
      let gain = freed -. Cost.gate_area op 3 in
      if gain > 0.0 then begin
        let sx = ctx.sigs.(x) and sy = ctx.sigs.(y) and sz = ctx.sigs.(z) in
        (match op with
         | Gate.And ->
           Bitvec.logand_into sx sy ~dst:s.gate;
           Bitvec.logand_into s.gate sz ~dst:s.gate
         | Gate.Or ->
           Bitvec.logor_into sx sy ~dst:s.gate;
           Bitvec.logor_into s.gate sz ~dst:s.gate
         | Gate.Xor ->
           Bitvec.logxor_into sx sy ~dst:s.gate;
           Bitvec.logxor_into s.gate sz ~dst:s.gate
         | Gate.Mux -> Bitvec.mux_into ~sel:sx sy sz ~dst:s.gate
         | Gate.Nand | Gate.Nor | Gate.Xnor | Gate.Const _ | Gate.Input
         | Gate.Buf | Gate.Not ->
           invalid_arg "Candidate_gen: unsupported triple op");
        let d = Bitvec.hamming tsig s.gate in
        found := (d, Lac.make ~target (Lac.Gate3 (op, x, y, z)) ~area_gain:gain) :: !found
      end
    in
    emit Gate.And a b c;
    emit Gate.Or a b c;
    emit Gate.Xor a b c;
    emit Gate.Mux a b c;
    emit Gate.Mux b a c;
    emit Gate.Mux c a b
  in
  let rec triples = function
    | a :: (b :: rest2 as rest) ->
      List.iter (fun c -> if a <> b && b <> c && a <> c then consider a b c) rest2;
      triples rest
    | [ _ ] | [] -> ()
  in
  triples shortlist;
  take_best config.triples_per_target !found

(* All candidates for one target, in reverse emission order. Reads only
   immutable views of [ctx] (plus the prebuilt similarity buckets and cut
   sets) and the caller's private scratch [s], so distinct targets can be
   enumerated on different domains concurrently. *)
let candidates_for_target (ctx : Round_ctx.t) config ~buckets ~all_cuts s target =
  let samples = ctx.patterns.Sim.count in
  let worth_replacing =
    match Network.op ctx.net target with
    | Gate.Input | Gate.Const _ | Gate.Buf -> false
    | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
    | Gate.Xnor | Gate.Mux -> true
  in
  let cone = if worth_replacing then Some (Mffc.cone s.mffc target) else None in
  match cone with
  | Some cone when Mffc.area cone > 0.0 ->
    let gain_base = Mffc.area cone in
    let acc = ref [] in
    let emit lac = acc := lac :: !acc in
    (* Constant LACs. *)
    emit (Lac.make ~target Lac.Const0 ~area_gain:gain_base);
    emit (Lac.make ~target Lac.Const1 ~area_gain:gain_base);
    (* Substitution pool: structural window, minus the target's TFO (using
       an SN inside the TFO would close a cycle). *)
    let usable v = not (Structure.in_tfo s.tfo ~target v) in
    let pool = List.filter usable (window_of s ctx config target) in
    let tsig = ctx.sigs.(target) in
    (* The pool ranked once by distance to the target (ties in pool
       order); each LAC family takes a prefix. *)
    let ranked =
      take_best (List.length pool)
        (List.map
           (fun v ->
             let d = Bitvec.hamming tsig ctx.sigs.(v) in
             (min d (samples - d), v))
           pool)
    in
    (* Wire / inverted-wire candidates: structural window plus global
       signature matches. *)
    let wire_limit =
      int_of_float (config.wire_distance_fraction *. float_of_int samples)
    in
    let inv_area = Cost.gate_area Gate.Not 1 in
    let global = List.filter usable (global_matches s buckets ctx config target) in
    let wires =
      List.sort_uniq compare (take config.wires_per_target ranked @ global)
    in
    List.iter
      (fun v ->
        let d = Bitvec.hamming tsig ctx.sigs.(v) in
        if min d (samples - d) <= wire_limit then begin
          let freed = Mffc.freed_area s.mffc cone [ v ] in
          if d <= samples - d then begin
            if freed > 0.0 then emit (Lac.make ~target (Lac.Wire v) ~area_gain:freed)
          end
          else if freed -. inv_area > 0.0 then
            emit (Lac.make ~target (Lac.Inv_wire v) ~area_gain:(freed -. inv_area))
        end)
      wires;
    if config.pairs_per_target > 0 then
      List.iter emit (pair_candidates s ctx config cone target (take 5 ranked));
    if config.triples_per_target > 0 then
      List.iter emit (triple_candidates s ctx config cone target (take 4 ranked));
    (* Cut-rewriting (SOP) candidates. *)
    if config.sops_per_target > 0 && all_cuts.(target) <> [] then
      List.iter emit (sop_candidates s ctx config cone target all_cuts.(target));
    !acc
  | Some _ | None -> []

let enumerate_cuts (ctx : Round_ctx.t) config =
  if config.sops_per_target > 0 then
    Cut_enum.enumerate ctx.net ~order:ctx.order
      ~k:(min config.cut_size Truth.max_vars)
      ~per_node:config.cuts_per_node
  else [||]

let generate ?pool (ctx : Round_ctx.t) config =
  match pool with
  | Some pool when Accals_runtime.Pool.jobs pool > 1 ->
    (* The two pre-passes are independent, so overlap them instead of
       running them back to back: cut enumeration is forked to the worker
       domains while the submitting domain computes the similarity
       buckets. Both are pure functions of [ctx], so the overlap cannot
       change their results; [Fan_out.join] publishes the forked write. *)
    let all_cuts = ref [||] in
    let ticket =
      Accals_runtime.Fan_out.fork ~label:"candidates.cuts" pool ~count:1
        (fun _ -> all_cuts := enumerate_cuts ctx config)
    in
    let buckets = similarity_buckets ctx in
    Accals_runtime.Fan_out.join pool ticket;
    (* Per-target enumeration fans out in chunks, each with its own
       scratch; concatenating the per-target lists in topological-order
       position reproduces the sequential emission order exactly. *)
    Array.fold_right List.rev_append
      (Accals_runtime.Fan_out.map_array_with ~label:"candidates" pool
         ~state:(fun () -> scratch ctx)
         ~f:(candidates_for_target ctx config ~buckets ~all_cuts:!all_cuts)
         ctx.order)
      []
  | _ ->
    let buckets = similarity_buckets ctx in
    let all_cuts = enumerate_cuts ctx config in
    let s = scratch ctx in
    (* Last target first, so each result cell is built once: the
       candidate list is the round's largest allocation. *)
    let result = ref [] in
    for i = Array.length ctx.order - 1 downto 0 do
      result :=
        List.rev_append
          (candidates_for_target ctx config ~buckets ~all_cuts s ctx.order.(i))
          !result
    done;
    !result
