open Accals_network
module Bitvec = Accals_bitvec.Bitvec
module Truth = Accals_twolevel.Truth
module Qm = Accals_twolevel.Qm
module Sop_synth = Accals_twolevel.Sop_synth
module Cut_enum = Accals_twolevel.Cut_enum

type config = {
  triples_per_target : int;
  global_wires : int;
  sops_per_target : int;
}

let default_config = { triples_per_target = 4; global_wires = 4; sops_per_target = 2 }

(* Fixed generator constants. *)
let window = 24  (* structural window size per target *)
let wires_per_target = 6  (* closest window signals tried as wires *)
let pairs_per_target = 6  (* 2-input resubstitution cap *)
let wire_distance_fraction = 0.25  (* a wire agrees on >= 75% of samples *)
let cut_size = 4  (* max SOP cut leaves *)
let cuts_per_node = 4  (* cuts kept per node during enumeration *)

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

(* Per-target scratch, created once per [iter] call (sequential) or
   per chunk (parallel) and never shared between domains. Every field is
   pure scratch: no per-target result depends on what earlier targets left
   in it ([qm] only caches a pure function). *)
type scratch = {
  mffc : Mffc.t;
  tfo : Structure.tfo_probe;
  seen : int array;  (** window membership: [seen.(id) = window_stamp] *)
  mutable window_stamp : int;
  products : Bitvec.t array;  (** per-depth positive-literal products *)
  qm : Qm.memo;  (** cut-function covers *)
}

let scratch (ctx : Round_ctx.t) =
  let n = Array.length ctx.fanout_counts in
  let samples = ctx.patterns.Sim.count in
  {
    mffc = Mffc.create ctx.net ~live:ctx.live ~fanout_counts:ctx.fanout_counts;
    tfo = Structure.tfo_probe ctx.net ~topo_pos:ctx.topo_pos;
    seen = Array.make n 0;
    window_stamp = 0;
    products = Array.init Truth.max_vars (fun _ -> Bitvec.create samples);
    qm = Qm.memo ();
  }

let global_matches buckets (ctx : Round_ctx.t) config target =
  if config.global_wires = 0 then []
  else begin
    let tsig = ctx.sigs.(target) in
    let direct = try Hashtbl.find buckets (Bitvec.prefix_word tsig) with Not_found -> [] in
    let inverted =
      try Hashtbl.find buckets (Bitvec.not_prefix_word tsig) with Not_found -> []
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
   (other fanins of the target's fanouts), capped at [window]. *)
let window_of s (ctx : Round_ctx.t) target =
  let net = ctx.net in
  s.window_stamp <- s.window_stamp + 1;
  let stamp = s.window_stamp in
  let seen id = s.seen.(id) = stamp in
  s.seen.(target) <- stamp;
  let result = ref [] in
  let count = ref 0 in
  let push id =
    if (not (seen id)) && ctx.live.(id) && !count < window then begin
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
  while (not (Queue.is_empty queue)) && !count < window do
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

(* First [counts.(m)] counts the samples on which every leaf in [m] is 1:
   a subset's product is its prefix subset's product ANDed with one more
   leaf, in [products.(depth)], which takes 2^k - k - 1 ANDs for [k]
   leaves; products that end in the last leaf are only counted. A Moebius
   transform over supersets then leaves the exact minterm counts. *)
let minterm_counts ~products (ctx : Round_ctx.t) leaves =
  let vars = Array.length leaves in
  let leaf i = ctx.sigs.(leaves.(i)) in
  let counts = Array.make (Truth.rows vars) 0 in
  counts.(0) <- ctx.patterns.Sim.count;
  (* [prefix] is the product of subset [m], whose largest leaf is [last]. *)
  let rec extend m prefix ~last ~depth =
    for i = last + 1 to vars - 1 do
      let m' = m lor (1 lsl i) in
      if i = vars - 1 then counts.(m') <- Bitvec.and_popcount prefix (leaf i)
      else begin
        let product = products.(depth) in
        Bitvec.logand_into prefix (leaf i) ~dst:product;
        counts.(m') <- Bitvec.popcount product;
        extend m' product ~last:i ~depth:(depth + 1)
      end
    done
  in
  for i = 0 to vars - 1 do
    counts.(1 lsl i) <- Bitvec.popcount (leaf i);
    extend (1 lsl i) (leaf i) ~last:i ~depth:0
  done;
  for i = 0 to vars - 1 do
    let bit = 1 lsl i in
    for m = 0 to Array.length counts - 1 do
      if m land bit = 0 then counts.(m) <- counts.(m) - counts.(m lor bit)
    done
  done;
  counts

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
          let counts = minterm_counts ~products:s.products ctx leaves in
          let order =
            let idx = Array.init (Truth.rows vars) (fun i -> i) in
            Array.sort (fun a b -> Int.compare counts.(a) counts.(b)) idx;
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
            let cubes = Qm.minimize_memo s.qm ~vars ~on ~dc in
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

(* Resubstitution rows (ALSRAC with k = [arity]): [ops] are gates over a
   permutation of the k chosen signals, in emission order ([Mux] takes the
   select first), and the signals come from the [prefix] closest pool
   signals. [kind op chosen perm] is the LAC kind of one op. *)
type resub = {
  arity : int;
  prefix : int;
  ops : (Gate.op * int array) array;
  kind : Gate.op -> int array -> int array -> Lac.kind;
}

let pairs =
  let ab = [| 0; 1 |] in
  {
    arity = 2;
    prefix = 5;
    ops = Array.map (fun op -> (op, ab)) Gate.[| And; Or; Xor; Nand; Nor; Xnor |];
    kind = (fun op c p -> Lac.Gate2 (op, c.(p.(0)), c.(p.(1))));
  }

let triples =
  let abc = [| 0; 1; 2 |] in
  {
    arity = 3;
    prefix = 4;
    ops =
      Gate.
        [| (And, abc); (Or, abc); (Xor, abc);
           (Mux, abc); (Mux, [| 1; 0; 2 |]); (Mux, [| 2; 0; 1 |]) |];
    kind = (fun op c p -> Lac.Gate3 (op, c.(p.(0)), c.(p.(1)), c.(p.(2))));
  }

(* The op a complemented op negates. *)
let base_op = function
  | Gate.Nand -> Gate.And
  | Gate.Nor -> Gate.Or
  | Gate.Xnor -> Gate.Xor
  | (Gate.Const _ | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or
    | Gate.Xor | Gate.Mux) as op -> op

(* Hamming distance from [tsig] to base op [op] over [arity] signatures,
   [input i] being the gate's fanin [i], without building the gate's
   signature. *)
let op_distance tsig op ~arity input =
  match (op, arity) with
  | Gate.And, 2 -> Bitvec.hamming_and tsig (input 0) (input 1)
  | Gate.Or, 2 -> Bitvec.hamming_or tsig (input 0) (input 1)
  | Gate.Xor, 2 -> Bitvec.hamming_xor tsig (input 0) (input 1)
  | Gate.And, 3 -> Bitvec.hamming_and3 tsig (input 0) (input 1) (input 2)
  | Gate.Or, 3 -> Bitvec.hamming_or3 tsig (input 0) (input 1) (input 2)
  | Gate.Xor, 3 -> Bitvec.hamming_xor3 tsig (input 0) (input 1) (input 2)
  | Gate.Mux, 3 -> Bitvec.hamming_mux tsig ~sel:(input 0) (input 1) (input 2)
  | ( ( Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or
      | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ),
      _ ) ->
    invalid_arg "Candidate_gen.op_distance: not a resubstitution base op"

(* The [cap] best resubstitutions of [target] by [row]. Combinations: the
   first [arity - 1] signals are consecutive in the ranked shortlist, the
   last is any later one (all pairs for k = 2). An op's distance is only
   computed when its gain is positive; a complemented op's distance is
   [samples] minus its base op's, as signatures carry no padding bits. *)
let resub_candidates s (ctx : Round_ctx.t) cone target ranked row ~cap =
  let samples = ctx.patterns.Sim.count in
  let shortlist = Array.of_list (take row.prefix ranked) in
  let k = row.arity in
  let chosen = Array.make k 0 in
  (* Distance of each entry's base op over its permutation of [chosen], or
     -1 until computed; entries with the same base op and the same
     permutation array use the first one's slot. *)
  let dist = Array.make (Array.length row.ops) (-1) in
  let distance op perm =
    let rec slot j =
      let o, p = row.ops.(j) in
      if p == perm && Gate.equal (base_op o) (base_op op) then j else slot (j + 1)
    in
    let j = slot 0 in
    if dist.(j) < 0 then
      dist.(j) <-
        op_distance ctx.sigs.(target) (base_op op) ~arity:k (fun i ->
            ctx.sigs.(chosen.(perm.(i))));
    if Gate.equal op (base_op op) then dist.(j) else samples - dist.(j)
  in
  let found = ref [] in
  if cap > 0 then
    for first = 0 to Array.length shortlist - k do
      for last = first + k - 1 to Array.length shortlist - 1 do
        Array.blit shortlist first chosen 0 (k - 1);
        chosen.(k - 1) <- shortlist.(last);
        Array.fill dist 0 (Array.length dist) (-1);
        let freed = Mffc.freed_area s.mffc cone (Array.to_list chosen) in
        Array.iter
          (fun (op, perm) ->
            let gain = freed -. Cost.gate_area op k in
            if gain > 0.0 then
              let lac = Lac.make ~target (row.kind op chosen perm) ~area_gain:gain in
              found := (distance op perm, lac) :: !found)
          row.ops
      done
    done;
  take_best cap !found

(* Pass every candidate for one target to [emit], in emission order. Reads
   only immutable views of [ctx] (plus the prebuilt similarity buckets and
   cut sets) and the caller's private scratch [s], so distinct targets can
   be enumerated on different domains concurrently. *)
let candidates_for_target (ctx : Round_ctx.t) config ~buckets ~all_cuts s ~emit target =
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
    (* Constant LACs. *)
    emit (Lac.make ~target Lac.Const0 ~area_gain:gain_base);
    emit (Lac.make ~target Lac.Const1 ~area_gain:gain_base);
    (* Substitution pool: structural window, minus the target's TFO (using
       an SN inside the TFO would close a cycle). *)
    let usable v = not (Structure.in_tfo s.tfo ~target v) in
    let pool = List.filter usable (window_of s ctx target) in
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
      int_of_float (wire_distance_fraction *. float_of_int samples)
    in
    let inv_area = Cost.gate_area Gate.Not 1 in
    let global = List.filter usable (global_matches buckets ctx config target) in
    let wires =
      List.sort_uniq compare (take wires_per_target ranked @ global)
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
    let resub = resub_candidates s ctx cone target ranked in
    List.iter emit (resub pairs ~cap:pairs_per_target);
    List.iter emit (resub triples ~cap:config.triples_per_target);
    (* Cut-rewriting (SOP) candidates. *)
    if config.sops_per_target > 0 && all_cuts.(target) <> [] then
      List.iter emit (sop_candidates s ctx config cone target all_cuts.(target))
  | Some _ | None -> ()

let enumerate_cuts (ctx : Round_ctx.t) config =
  if config.sops_per_target > 0 then
    Cut_enum.enumerate ctx.net ~order:ctx.order
      ~k:cut_size ~per_node:cuts_per_node
  else [||]

let iter ?pool (ctx : Round_ctx.t) config f =
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
       scratch, into per-target lists; walking them in topological-order
       position on this domain reproduces the sequential emission order
       exactly. *)
    Array.iter (List.iter f)
      (Accals_runtime.Fan_out.map_array_with ~label:"candidates" pool
         ~state:(fun () -> scratch ctx)
         ~f:(fun s target ->
           let acc = ref [] in
           candidates_for_target ctx config ~buckets ~all_cuts:!all_cuts s
             ~emit:(fun lac -> acc := lac :: !acc) target;
           List.rev !acc)
         ctx.order)
  | _ ->
    let buckets = similarity_buckets ctx in
    let all_cuts = enumerate_cuts ctx config in
    let s = scratch ctx in
    Array.iter (candidates_for_target ctx config ~buckets ~all_cuts s ~emit:f) ctx.order

let generate ?pool ctx config =
  let acc = ref [] in
  iter ?pool ctx config (fun lac -> acc := lac :: !acc);
  List.rev !acc
