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

(* ------------------------------------------------------------------ *)
(* The run-scoped memo.

   A target's candidates are a function of its frame (below: the MFFC,
   the window, the TFO-filtered pool and global matches) and of what
   generation reads beyond it:
   - the signatures of the target, the pool and the global matches (the
     distance ranking, wires and resubstitution);
   - the MFFC members' definitions (the cone's area and freed areas);
   - the target's cut lists, their leaves' signatures (minterm counts)
     and the definitions between the leaves and the target (the cut
     function).
   The frame is recomputed every round, memo or not: the TFO filter and
   the global matches are not local (a change anywhere downstream of the
   target, or anywhere with a similar signature, can alter them), and the
   MFFC and window are cheap. So the frame is compared with the stored
   one, and every other read is covered by stamps: each node carries the
   generation of its last definition change (or liveness flip) and of its
   last signature change, and each node's cut list the generation of its
   last change. An entry built at generation [g] is re-emitted while the
   frame equals the stored one and no read beyond it is stamped after [g].
   If a read had changed, the first changed read would be one this
   round's generation makes, so checking the current reads suffices.

   Entries hold no [Lac.t]. [codes] is [| g; pool mask over window
   positions; the window, the MFFC and the global matches, each as a
   count and its ids; LAC words... |] and [gains] holds each LAC's area
   gain. A LAC's first word packs its kind tag (3 bits), its gate (4
   bits) and its first operand; any further operands follow one word
   each. A SOP's first word packs its leaf and cube counts instead; the
   leaves follow, then one word per cube. *)

type entry = { codes : int array; gains : Float.Array.t }

let no_entry = { codes = [||]; gains = Float.Array.create 0 }

type memo = {
  mutable gen : int;  (* bumped by every [memo_refresh] *)
  (* Per node, the generation of its last change of: *)
  mutable def_at : int array;  (* definition or liveness *)
  mutable sig_at : int array;  (* signature *)
  mutable cuts_gen : int;  (* generation of the last cut update, or -1 *)
  cut_store : Cut_enum.store;
  mutable entries : entry array;  (* by target id *)
  mutable reused : int;
  mutable regenerated : int;
  mutable cuts_recomputed : int;
}

let memo () =
  {
    gen = 0;
    def_at = [||];
    sig_at = [||];
    cuts_gen = -1;
    cut_store = Cut_enum.store ();
    entries = [||];
    reused = 0;
    regenerated = 0;
    cuts_recomputed = 0;
  }

(* Room for [n] nodes. A node the memo has not seen counts as changed in
   the current generation. *)
let grow_memo m n =
  let cap = Array.length m.def_at in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    m.def_at <- extend m.def_at m.gen;
    m.sig_at <- extend m.sig_at m.gen;
    m.entries <- extend m.entries no_entry
  end

let memo_refresh m (delta : Accals_sigdb.Sigdb.delta) =
  m.gen <- m.gen + 1;
  grow_memo m (Array.length delta.struct_dirty);
  let stamp a id = a.(id) <- m.gen in
  List.iter (stamp m.def_at) delta.redefined;
  List.iter (stamp m.def_at) delta.live_changed;
  List.iter (stamp m.sig_at) delta.sig_changed

let memo_bytes m =
  let word = Sys.word_size / 8 in
  Array.fold_left
    (fun acc e ->
      if Array.length e.codes = 0 then acc
      else
        acc
        + ((Array.length e.codes + Float.Array.length e.gains + 5) * word))
    (((3 * Array.length m.def_at) + 16) * word)
    m.entries
  + Cut_enum.bytes m.cut_store

type work = {
  targets_reused : int;
  targets_regenerated : int;
  cuts_recomputed : int;
}

let memo_work m =
  {
    targets_reused = m.reused;
    targets_regenerated = m.regenerated;
    cuts_recomputed = m.cuts_recomputed;
  }

(* A growable entry under construction. *)
type draft = {
  mutable words : int array;
  mutable n_words : int;
  mutable areas : Float.Array.t;
  mutable n_areas : int;
}

let draft () =
  { words = Array.make 64 0; n_words = 0; areas = Float.Array.make 16 0.0; n_areas = 0 }

let push b x =
  if b.n_words = Array.length b.words then begin
    let words = Array.make (2 * b.n_words) 0 in
    Array.blit b.words 0 words 0 b.n_words;
    b.words <- words
  end;
  b.words.(b.n_words) <- x;
  b.n_words <- b.n_words + 1

let start b ~gen ~pool_mask ~lists =
  b.n_words <- 0;
  b.n_areas <- 0;
  push b gen;
  push b pool_mask;
  List.iter
    (fun l ->
      push b (List.length l);
      List.iter (push b) l)
    lists

let finish b =
  {
    codes = Array.sub b.words 0 b.n_words;
    gains = Float.Array.sub b.areas 0 b.n_areas;
  }

(* The only gates a LAC installs, by their 4-bit code. *)
let lac_ops = Gate.[| And; Or; Xor; Nand; Nor; Xnor; Mux |]

let op_code op =
  let rec find i = if Gate.equal lac_ops.(i) op then i else find (i + 1) in
  find 0

let cube_bits = Truth.max_vars

let add b (lac : Lac.t) =
  (* [field] is the gate code, or a SOP's leaf count. *)
  let head tag ~field operand = push b (tag lor (field lsl 3) lor (operand lsl 7)) in
  (match lac.Lac.kind with
   | Lac.Const0 -> head 0 ~field:0 0
   | Lac.Const1 -> head 1 ~field:0 0
   | Lac.Wire v -> head 2 ~field:0 v
   | Lac.Inv_wire v -> head 3 ~field:0 v
   | Lac.Gate2 (op, x, y) ->
     head 4 ~field:(op_code op) x;
     push b y
   | Lac.Gate3 (op, x, y, z) ->
     head 5 ~field:(op_code op) x;
     push b y;
     push b z
   | Lac.Sop { leaves; cubes } ->
     head 6 ~field:(Array.length leaves) (List.length cubes);
     Array.iter (push b) leaves;
     List.iter
       (fun c -> push b ((c.Qm.mask lsl cube_bits) lor c.Qm.value))
       cubes);
  if b.n_areas = Float.Array.length b.areas then begin
    let areas = Float.Array.make (2 * b.n_areas) 0.0 in
    Float.Array.blit b.areas 0 areas 0 b.n_areas;
    b.areas <- areas
  end;
  Float.Array.set b.areas b.n_areas lac.Lac.area_gain;
  b.n_areas <- b.n_areas + 1

(* Number of id lists in an entry's header: the frame's window, MFFC and
   global matches. *)
let header_lists = 3

(* Position of an entry's first LAC word, after the header lists. *)
let lacs_start codes =
  let pos = ref 2 in
  for _ = 1 to header_lists do
    pos := !pos + 1 + codes.(!pos)
  done;
  !pos

(* Emit an entry's LACs for [target], equal to the ones it was built
   from. *)
let replay e ~target emit =
  let codes = e.codes in
  let pos = ref (lacs_start codes) in
  for i = 0 to Float.Array.length e.gains - 1 do
    let w = codes.(!pos) and at = !pos in
    let field = (w lsr 3) land 15 and operand = w lsr 7 in
    let kind, words =
      match w land 7 with
      | 0 -> (Lac.Const0, 1)
      | 1 -> (Lac.Const1, 1)
      | 2 -> (Lac.Wire operand, 1)
      | 3 -> (Lac.Inv_wire operand, 1)
      | 4 -> (Lac.Gate2 (lac_ops.(field), operand, codes.(at + 1)), 2)
      | 5 ->
        (Lac.Gate3 (lac_ops.(field), operand, codes.(at + 1), codes.(at + 2)), 3)
      | _ ->
        let leaves = Array.sub codes (at + 1) field in
        let cubes =
          List.init operand (fun j ->
              let c = codes.(at + 1 + field + j) in
              {
                Qm.mask = c lsr cube_bits;
                value = c land ((1 lsl cube_bits) - 1);
              })
        in
        (Lac.Sop { leaves; cubes }, 1 + field + operand)
    in
    pos := at + words;
    emit (Lac.make ~target kind ~area_gain:(Float.Array.get e.gains i))
  done

(* Per-target scratch, created once per [iter] call (sequential) or
   per chunk (parallel) and never shared between domains. Every field is
   pure scratch: no per-target result depends on what earlier targets left
   in it ([qm] only caches a pure function). *)
type scratch = {
  mffc : Mffc.t;
  tfo : Structure.tfo_probe;
  seen : int array;
      (** window membership, then the footprint walk's visited set:
          [seen.(id) = window_stamp] *)
  mutable window_stamp : int;
  products : Bitvec.t array;  (** per-depth positive-literal products *)
  qm : Qm.memo;  (** cut-function covers *)
  entry : draft;  (** the memo entry of the target being generated *)
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
    entry = draft ();
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

(* The parts of a target's generation that are recomputed every round,
   memo or not: its MFFC, its window, the pool (the window minus the
   target's TFO, where an SN would close a cycle) with its mask over
   window positions, and the TFO-filtered global matches. [None] when the
   target has no candidates. *)
type frame = {
  cone : Mffc.cone;
  window : int list;
  pool : int list;
  pool_mask : int;
  global : int list;
}

let frame s (ctx : Round_ctx.t) config ~buckets target =
  let worth_replacing =
    match Network.op ctx.net target with
    | Gate.Input | Gate.Const _ | Gate.Buf -> false
    | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
    | Gate.Xnor | Gate.Mux -> true
  in
  if not worth_replacing then None
  else begin
    let cone = Mffc.cone s.mffc target in
    if Mffc.area cone > 0.0 then begin
      let usable v = not (Structure.in_tfo s.tfo ~target v) in
      let window = window_of s ctx target in
      let pool_mask = ref 0 in
      let pool =
        List.filteri
          (fun i v ->
            usable v
            && begin
              pool_mask := !pool_mask lor (1 lsl i);
              true
            end)
          window
      in
      let global = List.filter usable (global_matches buckets ctx config target) in
      Some { cone; window; pool; pool_mask = !pool_mask; global }
    end
    else None
  end

(* The frame's id lists, as an entry's header stores them. *)
let frame_lists fr = [ fr.window; Mffc.nodes fr.cone; fr.global ]

(* Pass every candidate for one target to [emit], in emission order. Reads
   only immutable views of [ctx] (plus the frame and the target's cuts)
   and the caller's private scratch [s], so distinct targets can be
   enumerated on different domains concurrently. *)
let generate_target (ctx : Round_ctx.t) config ~cuts s fr ~emit target =
  let samples = ctx.patterns.Sim.count in
  let cone = fr.cone in
  let gain_base = Mffc.area cone in
  (* Constant LACs. *)
  emit (Lac.make ~target Lac.Const0 ~area_gain:gain_base);
  emit (Lac.make ~target Lac.Const1 ~area_gain:gain_base);
  let tsig = ctx.sigs.(target) in
  (* The pool ranked once by distance to the target (ties in pool order);
     each LAC family takes a prefix. *)
  let ranked =
    take_best (List.length fr.pool)
      (List.map
         (fun v ->
           let d = Bitvec.hamming tsig ctx.sigs.(v) in
           (min d (samples - d), v))
         fr.pool)
  in
  (* Wire / inverted-wire candidates: structural window plus global
     signature matches. *)
  let wire_limit =
    int_of_float (wire_distance_fraction *. float_of_int samples)
  in
  let inv_area = Cost.gate_area Gate.Not 1 in
  let wires = List.sort_uniq compare (take wires_per_target ranked @ fr.global) in
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
  if config.sops_per_target > 0 then begin
    let target_cuts = cuts target in
    if target_cuts <> [] then
      List.iter emit (sop_candidates s ctx config cone target target_cuts)
  end

(* The leaves of one of [target]'s cuts pass [sig_fresh], and every node
   between them and the target passes [def_fresh]. *)
let cut_fresh s (ctx : Round_ctx.t) ~sig_fresh ~def_fresh target leaves =
  Array.for_all sig_fresh leaves
  && begin
    s.window_stamp <- s.window_stamp + 1;
    let stamp = s.window_stamp in
    let rec walk id =
      Array.mem id leaves
      || s.seen.(id) = stamp
      || begin
        s.seen.(id) <- stamp;
        def_fresh id && Array.for_all walk (Network.fanins ctx.net id)
      end
    in
    walk target
  end

(* Whether [target]'s memo entry is what its generation would emit now:
   the same frame, and no read beyond it changed since the entry's
   generation (see the memo's description above). *)
let reusable m s (ctx : Round_ctx.t) config fr target =
  let e = m.entries.(target) in
  let codes = e.codes in
  Array.length codes > 0
  && codes.(1) = fr.pool_mask
  && begin
    (* The header lists from [pos] on equal [lists]. *)
    let rec same_lists pos = function
      | [] -> true
      | l :: rest ->
        let n = codes.(pos) in
        let rec same i = function
          | [] -> i = n
          | v :: vs -> i < n && codes.(pos + 1 + i) = v && same (i + 1) vs
        in
        same 0 l && same_lists (pos + 1 + n) rest
    in
    same_lists 2 (frame_lists fr)
  end
  && begin
    let since = codes.(0) in
    let def_fresh id = m.def_at.(id) <= since in
    let sig_fresh id = m.sig_at.(id) <= since in
    sig_fresh target
    && List.for_all sig_fresh fr.pool
    && List.for_all sig_fresh fr.global
    && List.for_all def_fresh (Mffc.nodes fr.cone)
    && (config.sops_per_target = 0
        || Cut_enum.changed_at m.cut_store target <= since
           && List.for_all (cut_fresh s ctx ~sig_fresh ~def_fresh target)
                (Cut_enum.cuts m.cut_store target))
  end

type outcome = No_candidates | Reused | Regenerated of entry

(* One target's candidates, re-emitted from the memo when they cannot
   have changed. The memo is only read here; the caller records the
   outcome. *)
let candidates_for_target ?memo (ctx : Round_ctx.t) config ~buckets ~cuts s ~emit
    target =
  match frame s ctx config ~buckets target with
  | None -> No_candidates
  | Some fr -> (
    match memo with
    | None ->
      generate_target ctx config ~cuts s fr ~emit target;
      Regenerated no_entry
    | Some m when reusable m s ctx config fr target ->
      replay m.entries.(target) ~target emit;
      Reused
    | Some m ->
      start s.entry ~gen:m.gen ~pool_mask:fr.pool_mask
        ~lists:(frame_lists fr);
      generate_target ctx config ~cuts s fr
        ~emit:(fun lac ->
          add s.entry lac;
          emit lac)
        target;
      Regenerated (finish s.entry))

let record m target = function
  | No_candidates -> m.entries.(target) <- no_entry
  | Reused -> m.reused <- m.reused + 1
  | Regenerated e ->
    m.regenerated <- m.regenerated + 1;
    m.entries.(target) <- e

(* Ready the memo for [ctx]: drop the entries of dead nodes, which a
   revived node's newer stamp would reject anyway. *)
let prepare m (ctx : Round_ctx.t) =
  grow_memo m (Array.length ctx.live);
  Array.iteri
    (fun id e ->
      if Array.length e.codes > 0 && not (id < Array.length ctx.live && ctx.live.(id))
      then m.entries.(id) <- no_entry)
    m.entries

(* Each node's cuts: recomputed from scratch without a memo, brought up to
   date in the memo's store with one. *)
let cuts_of ?memo (ctx : Round_ctx.t) config =
  if config.sops_per_target = 0 then fun _ -> []
  else
    match memo with
    | None ->
      let all =
        Cut_enum.enumerate ctx.net ~order:ctx.order ~k:cut_size
          ~per_node:cuts_per_node
      in
      fun id -> all.(id)
    | Some m ->
      let since = m.cuts_gen in
      m.cuts_recomputed <-
        m.cuts_recomputed
        + Cut_enum.update m.cut_store ctx.net ~order:ctx.order ~k:cut_size
            ~per_node:cuts_per_node
            ~dirty:(fun id -> m.def_at.(id) > since)
            ~stamp:m.gen;
      m.cuts_gen <- m.gen;
      Cut_enum.cuts m.cut_store

let iter ?pool ?memo (ctx : Round_ctx.t) config f =
  Option.iter (fun m -> prepare m ctx) memo;
  match pool with
  | Some pool when Accals_runtime.Pool.jobs pool > 1 ->
    (* The two pre-passes are independent, so overlap them instead of
       running them back to back: the cut update is forked to the worker
       domains while the submitting domain computes the similarity
       buckets. The buckets are a pure function of [ctx] and the fork is
       the only writer of the cut store, so the overlap cannot change
       their results; [Fan_out.join] publishes the forked writes. *)
    let cuts = ref (fun _ -> []) in
    let ticket =
      Accals_runtime.Fan_out.fork ~label:"candidates.cuts" pool ~count:1
        (fun _ -> cuts := cuts_of ?memo ctx config)
    in
    let buckets = similarity_buckets ctx in
    Accals_runtime.Fan_out.join pool ticket;
    let cuts = !cuts in
    (* Per-target enumeration fans out in chunks, each with its own
       scratch, into per-target lists; the workers only read the memo.
       Walking the lists in topological-order position on this domain,
       which also records each target's outcome in the memo, reproduces
       the sequential emission order exactly. *)
    let results =
      Accals_runtime.Fan_out.map_array_with ~label:"candidates" pool
        ~state:(fun () -> scratch ctx)
        ~f:(fun s target ->
          let acc = ref [] in
          let outcome =
            candidates_for_target ?memo ctx config ~buckets ~cuts s
              ~emit:(fun lac -> acc := lac :: !acc)
              target
          in
          (List.rev !acc, outcome))
        ctx.order
    in
    Array.iteri
      (fun i (lacs, outcome) ->
        List.iter f lacs;
        Option.iter (fun m -> record m ctx.order.(i) outcome) memo)
      results
  | _ ->
    let buckets = similarity_buckets ctx in
    let cuts = cuts_of ?memo ctx config in
    let s = scratch ctx in
    Array.iter
      (fun target ->
        let outcome =
          candidates_for_target ?memo ctx config ~buckets ~cuts s ~emit:f target
        in
        Option.iter (fun m -> record m target outcome) memo)
      ctx.order

let generate ?pool ctx config =
  let acc = ref [] in
  iter ?pool ctx config (fun lac -> acc := lac :: !acc);
  List.rev !acc
