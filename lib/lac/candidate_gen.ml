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
let pairs_prefix = 5  (* closest pool signals 2-input gates draw from *)
let triples_prefix = 4  (* closest pool signals 3-input gates draw from *)
let wire_distance_fraction = 0.25  (* a wire agrees on >= 75% of samples *)
let cut_size = 4  (* max SOP cut leaves *)
let cuts_per_node = 4  (* cuts kept per node during enumeration *)

(* The ranked prefix: the only pool signals generation reads. *)
let prefix_len = max wires_per_target (max pairs_prefix triples_prefix)

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

   Of the pool, generation reads only the ranked prefix: the [prefix_len]
   signals closest to the target (wires take 6, pairs 5, triples 4). So
   when the exact check fails, the pool is ranked and the entry is still
   re-emitted when its prefix, MFFC and global matches equal today's and
   the target, prefix and global signatures, the MFFC definitions and
   the cuts are fresh; it is then re-stamped to the current generation
   and frame (a re-key). SOPs are emitted last and read only the MFFC and
   the cuts, so when those are fresh but the entry is not, the constants,
   wires and resubstitutions are regenerated and the entry's SOP tail is
   copied (DESIGN.md section 3).

   Entries hold no [Lac.t]. [codes] is [| g; pool mask over window
   positions; the window, the MFFC, the global matches and the ranked
   prefix, each as a count and its ids; the SOP tail's word offset from
   the first LAC word and its first LAC index; LAC words... |] and [gains]
   holds each LAC's area gain. A LAC's first word packs its kind tag (3
   bits), its gate (4 bits) and its first operand; any further operands
   follow one word each. A SOP's first word packs its leaf and cube counts
   instead; the leaves follow, then one word per cube. *)

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
  qms : (int, Qm.memo) Hashtbl.t;  (* cut-function covers, per domain *)
  qm_lock : Mutex.t;
  mutable reused : int;
  mutable rekeyed : int;
  mutable regenerated : int;
  mutable sops_reused : int;
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
    qms = Hashtbl.create 4;
    qm_lock = Mutex.create ();
    reused = 0;
    rekeyed = 0;
    regenerated = 0;
    sops_reused = 0;
    cuts_recomputed = 0;
  }

(* The calling domain's QM memo. Covers are a pure function of their key,
   so which memo serves a target cannot change a result. *)
let domain_qm m =
  Mutex.protect m.qm_lock (fun () ->
      let d = (Domain.self () :> int) in
      match Hashtbl.find_opt m.qms d with
      | Some qm -> qm
      | None ->
        let qm = Qm.memo () in
        Hashtbl.add m.qms d qm;
        qm)

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
  + Mutex.protect m.qm_lock (fun () ->
      Hashtbl.fold (fun _ qm acc -> acc + Qm.memo_bytes qm) m.qms 0)

type work = {
  targets_reused : int;
  targets_rekeyed : int;
  targets_regenerated : int;
  sop_sections_reused : int;
  cuts_recomputed : int;
}

let memo_work m =
  {
    targets_reused = m.reused;
    targets_rekeyed = m.rekeyed;
    targets_regenerated = m.regenerated;
    sop_sections_reused = m.sops_reused;
    cuts_recomputed = m.cuts_recomputed;
  }

(* A growable entry under construction. [tail_at] is the position of the
   header's two SOP-tail words. *)
type draft = {
  mutable words : int array;
  mutable n_words : int;
  mutable areas : Float.Array.t;
  mutable n_areas : int;
  mutable tail_at : int;
}

let draft () =
  {
    words = Array.make 64 0;
    n_words = 0;
    areas = Float.Array.make 16 0.0;
    n_areas = 0;
    tail_at = 0;
  }

let push b x =
  if b.n_words = Array.length b.words then begin
    let words = Array.make (2 * b.n_words) 0 in
    Array.blit b.words 0 words 0 b.n_words;
    b.words <- words
  end;
  b.words.(b.n_words) <- x;
  b.n_words <- b.n_words + 1

let push_gain b g =
  if b.n_areas = Float.Array.length b.areas then begin
    let areas = Float.Array.make (2 * b.n_areas) 0.0 in
    Float.Array.blit b.areas 0 areas 0 b.n_areas;
    b.areas <- areas
  end;
  Float.Array.set b.areas b.n_areas g;
  b.n_areas <- b.n_areas + 1

let push_list b l =
  push b (List.length l);
  List.iter (push b) l

(* The ranked prefix as scratch keeps it: its first [n] ids. *)
let push_ids b ids n =
  push b n;
  for i = 0 to n - 1 do
    push b ids.(i)
  done

(* Begin an entry: the generation, the frame's pool mask and header
   lists, and room for the SOP-tail words. *)
let start b ~gen ~pool_mask ~window ~mffc ~global ~prefix ~ranked =
  b.n_words <- 0;
  b.n_areas <- 0;
  push b gen;
  push b pool_mask;
  push_list b window;
  push_list b mffc;
  push_list b global;
  push_ids b prefix ranked;
  b.tail_at <- b.n_words;
  push b 0;
  push b 0

(* The SOP tail starts here. *)
let mark_tail b =
  b.words.(b.tail_at) <- b.n_words - (b.tail_at + 2);
  b.words.(b.tail_at + 1) <- b.n_areas

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
  push_gain b lac.Lac.area_gain

(* Number of id lists in an entry's header: the frame's window, MFFC and
   global matches, and the ranked prefix. *)
let header_lists = 4

(* Position of an entry's [i]-th header list. *)
let list_at codes i =
  let pos = ref 2 in
  for _ = 1 to i do
    pos := !pos + 1 + codes.(!pos)
  done;
  !pos

(* Position of an entry's first LAC word, after the header lists and the
   two SOP-tail words. *)
let lacs_start codes = list_at codes header_lists + 2

(* Emit LACs [first ..] of an entry, whose words start at [pos], for
   [target], equal to the ones the entry was built from. *)
let replay_from e ~pos ~first ~target emit =
  let codes = e.codes in
  let pos = ref pos in
  for i = first to Float.Array.length e.gains - 1 do
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

let replay e ~target emit = replay_from e ~pos:(lacs_start e.codes) ~first:0 ~target emit

(* The entry's SOP tail: its first word's position and its first LAC. *)
let sop_tail e =
  let start = lacs_start e.codes in
  (start + e.codes.(start - 2), e.codes.(start - 1))

(* Append the LACs of [e] (the SOP tail, or all of them) to the draft. *)
let copy_lacs b e ~pos ~first =
  for i = pos to Array.length e.codes - 1 do
    push b e.codes.(i)
  done;
  for i = first to Float.Array.length e.gains - 1 do
    push_gain b (Float.Array.get e.gains i)
  done

(* Resubstitution rows (ALSRAC with k = [arity]): [ops] are gates over a
   permutation [perms] of the k chosen signals, in emission order ([Mux]
   takes the select first), and the signals come from the [prefix]
   closest pool signals. An op's distance is its base op's (the op a
   complemented op negates), shared by every op of the row with the same
   base op and the same permutation array: [slot] names the first such
   op. *)
type resub = {
  arity : int;
  prefix : int;
  ops : Gate.op array;
  perms : int array array;
  slot : int array;
  areas : float array;  (* [Cost.gate_area] of each op *)
}

(* The op a complemented op negates. *)
let base_op = function
  | Gate.Nand -> Gate.And
  | Gate.Nor -> Gate.Or
  | Gate.Xnor -> Gate.Xor
  | (Gate.Const _ | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or
    | Gate.Xor | Gate.Mux) as op -> op

let row ~arity ~prefix gates =
  let ops = Array.map fst gates and perms = Array.map snd gates in
  let slot =
    Array.mapi
      (fun j op ->
        let rec first i =
          if perms.(i) == perms.(j) && Gate.equal (base_op ops.(i)) (base_op op) then i
          else first (i + 1)
        in
        first 0)
      ops
  in
  let areas = Array.map (fun op -> Cost.gate_area op arity) ops in
  { arity; prefix; ops; perms; slot; areas }

let pairs =
  let ab = [| 0; 1 |] in
  row ~arity:2 ~prefix:pairs_prefix
    (Array.map (fun op -> (op, ab)) Gate.[| And; Or; Xor; Nand; Nor; Xnor |])

let triples =
  let abc = [| 0; 1; 2 |] in
  row ~arity:3 ~prefix:triples_prefix
    Gate.
      [| (And, abc); (Or, abc); (Xor, abc);
         (Mux, abc); (Mux, [| 1; 0; 2 |]); (Mux, [| 2; 0; 1 |]) |]

(* Hamming distance from [tsig] to base op [op] over the fanin signatures
   [a], [b] and, for a 3-input op, [c], without building the gate's
   signature. *)
let op_distance tsig op ~arity a b c =
  match (op, arity) with
  | Gate.And, 2 -> Bitvec.hamming_and tsig a b
  | Gate.Or, 2 -> Bitvec.hamming_or tsig a b
  | Gate.Xor, 2 -> Bitvec.hamming_xor tsig a b
  | Gate.And, 3 -> Bitvec.hamming_and3 tsig a b c
  | Gate.Or, 3 -> Bitvec.hamming_or3 tsig a b c
  | Gate.Xor, 3 -> Bitvec.hamming_xor3 tsig a b c
  | Gate.Mux, 3 -> Bitvec.hamming_mux tsig ~sel:a b c
  | ( ( Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or
      | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ),
      _ ) ->
    invalid_arg "Candidate_gen.op_distance: not a resubstitution base op"

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
  mutable queue : int array;  (** the window's BFS queue *)
  products : Bitvec.t array;  (** per-depth positive-literal products *)
  truth : Truth.scratch;  (** cut-function walks *)
  qm : Qm.memo;  (** cut-function covers *)
  entry : draft;  (** the memo entry of the target being generated *)
  (* The ranked prefix: ids and distances, closest first. *)
  prefix : int array;
  prefix_d : int array;
  mutable ranked : int;
  wires : int array;  (** wire ids, sorted *)
  (* A resubstitution row's best so far, closest first: distance, gain,
     op index and the gate's fanins (3 slots each). *)
  best_d : int array;
  best_gain : Float.Array.t;
  best_op : int array;
  best_ids : int array;
  mutable n_best : int;
  chosen : int array;
  dist : int array;  (** per op slot, the base distance, or -1 *)
  (* SOP covers found for the target, at most four per cut: gain, leaves,
     cubes. *)
  sop_gain : Float.Array.t;
  sop_leaves : int array array;
  sop_cubes : Qm.cube list array;
  mutable n_sops : int;
  sop_order : int array;
}

let scratch ?memo (ctx : Round_ctx.t) config =
  let n = Array.length ctx.fanout_counts in
  let samples = ctx.patterns.Sim.count in
  let cap = max 1 (max pairs_per_target config.triples_per_target) in
  let sops = 4 * cuts_per_node in
  {
    mffc = Mffc.create ctx.net ~live:ctx.live ~fanout_counts:ctx.fanout_counts;
    tfo = Structure.tfo_probe ctx.net ~topo_pos:ctx.topo_pos;
    seen = Array.make n 0;
    window_stamp = 0;
    queue = Array.make 64 0;
    products = Array.init Truth.max_vars (fun _ -> Bitvec.create samples);
    truth = Truth.scratch ();
    qm = (match memo with Some m -> domain_qm m | None -> Qm.memo ());
    entry = draft ();
    prefix = Array.make prefix_len 0;
    prefix_d = Array.make prefix_len 0;
    ranked = 0;
    wires = Array.make (prefix_len + (2 * config.global_wires)) 0;
    best_d = Array.make cap 0;
    best_gain = Float.Array.make cap 0.0;
    best_op = Array.make cap 0;
    best_ids = Array.make (3 * cap) 0;
    n_best = 0;
    chosen = Array.make 3 0;
    dist = Array.make (max (Array.length pairs.ops) (Array.length triples.ops)) (-1);
    sop_gain = Float.Array.make sops 0.0;
    sop_leaves = Array.make sops [||];
    sop_cubes = Array.make sops [];
    n_sops = 0;
    sop_order = Array.make sops 0;
  }

(* The first [n] signals of [ids] other than [target], those outside the
   target's TFO kept, followed by [rest]. *)
let rec usable_matches s target n ids rest =
  match ids with
  | [] -> rest
  | _ when n = 0 -> rest
  | x :: xs ->
    if x = target then usable_matches s target n xs rest
    else if Structure.in_tfo s.tfo ~target x then usable_matches s target (n - 1) xs rest
    else x :: usable_matches s target (n - 1) xs rest

(* Global signature matches: up to [global_wires] signals with the
   target's signature prefix, then as many with its complement's, minus
   those in the target's TFO. *)
let global_matches s buckets (ctx : Round_ctx.t) config target =
  if config.global_wires = 0 then []
  else begin
    let tsig = ctx.sigs.(target) in
    let bucket key = try Hashtbl.find buckets key with Not_found -> [] in
    let n = config.global_wires in
    usable_matches s target n
      (bucket (Bitvec.prefix_word tsig))
      (usable_matches s target n (bucket (Bitvec.not_prefix_word tsig)) [])
  end

(* Structural window around [target]: transitive fanins (BFS) plus siblings
   (other fanins of the target's fanouts), capped at [window]. *)
let window_of s (ctx : Round_ctx.t) target =
  let net = ctx.net in
  s.window_stamp <- s.window_stamp + 1;
  let stamp = s.window_stamp in
  s.seen.(target) <- stamp;
  let result = ref [] and count = ref 0 in
  let push id =
    if s.seen.(id) <> stamp && ctx.live.(id) && !count < window then begin
      s.seen.(id) <- stamp;
      result := id :: !result;
      incr count
    end
  in
  (* Siblings first: cheap shared logic nearby. *)
  let fanouts = ctx.fanouts.(target) in
  for i = 0 to Array.length fanouts - 1 do
    let fis = Network.fanins net fanouts.(i) in
    for j = 0 to Array.length fis - 1 do
      push fis.(j)
    done
  done;
  (* BFS through fanins, on the scratch's queue. *)
  let head = ref 0 and tail = ref 1 in
  s.queue.(0) <- target;
  while !head < !tail && !count < window do
    let fis = Network.fanins net s.queue.(!head) in
    incr head;
    for j = 0 to Array.length fis - 1 do
      let f = fis.(j) in
      if s.seen.(f) <> stamp then begin
        push f;
        if !tail = Array.length s.queue then
          s.queue <- Array.append s.queue (Array.make !tail 0);
        s.queue.(!tail) <- f;
        incr tail
      end
    done
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

(* [sort_by_count counts a] is [Array.sort] of [a] by ascending
   [counts.(a.(i))]: a copy of the stdlib's ternary heap sort, specialized
   to that comparison so that it needs no closure, and making the same
   comparisons in the same order, so that ties end up in the same order.
   [maxson] returns -1 where the stdlib raises [Bottom]. *)
let maxson counts a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if counts.(a.(i31)) < counts.(a.(i31 + 1)) then i31 + 1 else i31 in
    if counts.(a.(x)) < counts.(a.(i31 + 2)) then i31 + 2 else x
  end
  else if i31 + 1 < l && counts.(a.(i31)) < counts.(a.(i31 + 1)) then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle counts a l i e =
  let j = maxson counts a l i in
  if j >= 0 && counts.(a.(j)) > counts.(e) then begin
    a.(i) <- a.(j);
    trickle counts a l j e
  end
  else a.(i) <- e

let rec bubble counts a l i =
  let j = maxson counts a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble counts a l j
  end

let rec trickleup counts a i e =
  let father = (i - 1) / 3 in
  if counts.(a.(father)) < counts.(e) then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup counts a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_by_count counts a =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle counts a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup counts a (bubble counts a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* SOP cover [i] of the scratch comes before cover [j]: larger gain first,
   then the smaller LAC kind under [compare]. *)
let sop_before s i j =
  match Float.compare (Float.Array.get s.sop_gain j) (Float.Array.get s.sop_gain i) with
  | 0 -> (
    match compare s.sop_leaves.(i) s.sop_leaves.(j) with
    | 0 -> compare s.sop_cubes.(i) s.sop_cubes.(j) < 0
    | c -> c < 0)
  | c -> c < 0

let sop_equal s i j =
  Float.Array.get s.sop_gain i = Float.Array.get s.sop_gain j
  && s.sop_leaves.(i) = s.sop_leaves.(j)
  && s.sop_cubes.(i) = s.sop_cubes.(j)

let add_sop s gain leaves cubes =
  let n = s.n_sops in
  Float.Array.set s.sop_gain n gain;
  s.sop_leaves.(n) <- leaves;
  s.sop_cubes.(n) <- cubes;
  s.n_sops <- n + 1

(* SOP rewriting candidates for one target: re-minimize the cut function
   exactly, and with the rarest minterms declared don't-care (the
   approximate-cut idea of [15]). The [sops_per_target] best distinct
   covers are emitted, largest gain first. *)
let sop_candidates s (ctx : Round_ctx.t) config cone target cuts_of_target ~emit =
  let net = ctx.net in
  s.n_sops <- 0;
  List.iter
    (fun leaves ->
      if Array.length leaves >= 2 && Array.length leaves <= Truth.max_vars then begin
        match Truth.of_cone ~scratch:s.truth net ~leaves ~root:target with
        | exception Invalid_argument _ -> ()
        | truth ->
          let vars = Array.length leaves in
          let counts = minterm_counts ~products:s.products ctx leaves in
          let order =
            let idx = Array.init (Truth.rows vars) (fun i -> i) in
            sort_by_count counts idx;
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
            if gain > 0.0 then add_sop s gain leaves cubes
          in
          consider 0;
          consider (dc_of 1);
          consider (dc_of 2);
          if vars >= 3 then consider (dc_of 4)
      end)
    cuts_of_target;
  (* Insertion sort, then the first cover of each run of equal ones. *)
  let order = s.sop_order in
  for i = 0 to s.n_sops - 1 do
    let j = ref i in
    while !j > 0 && sop_before s i order.(!j - 1) do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- i
  done;
  let emitted = ref 0 and i = ref 0 in
  while !emitted < config.sops_per_target && !i < s.n_sops do
    let c = order.(!i) in
    if !i = 0 || not (sop_equal s c order.(!i - 1)) then begin
      emit
        (Lac.make ~target
           (Lac.Sop { leaves = s.sop_leaves.(c); cubes = s.sop_cubes.(c) })
           ~area_gain:(Float.Array.get s.sop_gain c));
      incr emitted
    end;
    incr i
  done

(* The [cap] best resubstitutions of [target] by [row], closest first,
   later-found first among equal distances. Combinations: the first
   [arity - 1] signals are consecutive in the ranked prefix, the last is
   any later one (all pairs for k = 2). An op's distance is only computed
   when its gain is positive; a complemented op's distance is [samples]
   minus its base op's, as signatures carry no padding bits. *)
let resub_candidates s (ctx : Round_ctx.t) cone target (row : resub) ~cap ~emit =
  let samples = ctx.patterns.Sim.count in
  let sigs = ctx.sigs in
  let tsig = sigs.(target) in
  let n = min row.prefix s.ranked in
  let k = row.arity in
  let chosen = s.chosen and dist = s.dist in
  (* Keep the best [cap]: a newcomer goes before every kept entry at its
     distance. *)
  let keep d gain j =
    let pos = ref s.n_best in
    while !pos > 0 && s.best_d.(!pos - 1) >= d do
      decr pos
    done;
    let at = !pos in
    if at < cap then begin
      for i = min s.n_best (cap - 1) downto at + 1 do
        s.best_d.(i) <- s.best_d.(i - 1);
        Float.Array.set s.best_gain i (Float.Array.get s.best_gain (i - 1));
        s.best_op.(i) <- s.best_op.(i - 1);
        for f = 0 to 2 do
          s.best_ids.((3 * i) + f) <- s.best_ids.((3 * (i - 1)) + f)
        done
      done;
      s.best_d.(at) <- d;
      Float.Array.set s.best_gain at gain;
      s.best_op.(at) <- j;
      let perm = row.perms.(j) in
      for i = 0 to k - 1 do
        s.best_ids.((3 * at) + i) <- chosen.(perm.(i))
      done;
      if s.n_best < cap then s.n_best <- s.n_best + 1
    end
  in
  s.n_best <- 0;
  if cap > 0 then
    for first = 0 to n - k do
      for last = first + k - 1 to n - 1 do
        Array.blit s.prefix first chosen 0 (k - 1);
        chosen.(k - 1) <- s.prefix.(last);
        Array.fill dist 0 (Array.length row.ops) (-1);
        let freed =
          Mffc.freed_area s.mffc cone
            (if k = 2 then [ chosen.(0); chosen.(1) ]
             else [ chosen.(0); chosen.(1); chosen.(2) ])
        in
        for j = 0 to Array.length row.ops - 1 do
          let gain = freed -. row.areas.(j) in
          if gain > 0.0 then begin
            let op = row.ops.(j) and slot = row.slot.(j) in
            if dist.(slot) < 0 then begin
              let perm = row.perms.(j) in
              let a = sigs.(chosen.(perm.(0))) and b = sigs.(chosen.(perm.(1))) in
              let c = if k = 3 then sigs.(chosen.(perm.(2))) else a in
              dist.(slot) <- op_distance tsig (base_op op) ~arity:k a b c
            end;
            let d =
              if Gate.equal op (base_op op) then dist.(slot) else samples - dist.(slot)
            in
            keep d gain j
          end
        done
      done
    done;
  for i = 0 to s.n_best - 1 do
    let op = row.ops.(s.best_op.(i)) and id j = s.best_ids.((3 * i) + j) in
    let kind =
      if k = 2 then Lac.Gate2 (op, id 0, id 1) else Lac.Gate3 (op, id 0, id 1, id 2)
    in
    emit (Lac.make ~target kind ~area_gain:(Float.Array.get s.best_gain i))
  done

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
      let window = window_of s ctx target in
      let pool_mask = ref 0 in
      let rec pool i = function
        | [] -> []
        | v :: rest ->
          if Structure.in_tfo s.tfo ~target v then pool (i + 1) rest
          else begin
            pool_mask := !pool_mask lor (1 lsl i);
            v :: pool (i + 1) rest
          end
      in
      let pool = pool 0 window in
      let global = global_matches s buckets ctx config target in
      Some { cone; window; pool; pool_mask = !pool_mask; global }
    end
    else None
  end

(* Rank the pool by distance to the target and keep the [prefix_len]
   closest in the scratch, ties in pool order: the prefix of a stable
   sort of the whole pool. *)
let rank s (ctx : Round_ctx.t) fr target =
  let samples = ctx.patterns.Sim.count in
  let tsig = ctx.sigs.(target) in
  s.ranked <- 0;
  List.iter
    (fun v ->
      let d = Bitvec.hamming tsig ctx.sigs.(v) in
      let d = min d (samples - d) in
      let pos = ref s.ranked in
      while !pos > 0 && s.prefix_d.(!pos - 1) > d do
        decr pos
      done;
      let at = !pos in
      if at < prefix_len then begin
        for i = min s.ranked (prefix_len - 1) downto at + 1 do
          s.prefix.(i) <- s.prefix.(i - 1);
          s.prefix_d.(i) <- s.prefix_d.(i - 1)
        done;
        s.prefix.(at) <- v;
        s.prefix_d.(at) <- d;
        if s.ranked < prefix_len then s.ranked <- s.ranked + 1
      end)
    fr.pool

(* Pass the constant, wire and resubstitution candidates of one target to
   [emit], in emission order, from its frame and ranked prefix ({!rank}).
   Reads only immutable views of [ctx] and the caller's private scratch
   [s], so distinct targets can be enumerated on different domains
   concurrently. *)
let generate_front (ctx : Round_ctx.t) config s fr ~emit target =
  let samples = ctx.patterns.Sim.count in
  let cone = fr.cone in
  let gain_base = Mffc.area cone in
  (* Constant LACs. *)
  emit (Lac.make ~target Lac.Const0 ~area_gain:gain_base);
  emit (Lac.make ~target Lac.Const1 ~area_gain:gain_base);
  let tsig = ctx.sigs.(target) in
  (* Wire / inverted-wire candidates: the closest pool signals plus the
     global signature matches, ascending and distinct. *)
  let wire_limit =
    int_of_float (wire_distance_fraction *. float_of_int samples)
  in
  let inv_area = Cost.gate_area Gate.Not 1 in
  let wires = s.wires in
  let n = ref 0 in
  let add v =
    let j = ref !n in
    while !j > 0 && wires.(!j - 1) > v do
      wires.(!j) <- wires.(!j - 1);
      decr j
    done;
    wires.(!j) <- v;
    incr n
  in
  for i = 0 to min wires_per_target s.ranked - 1 do
    add s.prefix.(i)
  done;
  List.iter add fr.global;
  for i = 0 to !n - 1 do
    let v = wires.(i) in
    if i = 0 || v <> wires.(i - 1) then begin
      let d = Bitvec.hamming tsig ctx.sigs.(v) in
      if min d (samples - d) <= wire_limit then begin
        let freed = Mffc.freed_area s.mffc cone [ v ] in
        if d <= samples - d then begin
          if freed > 0.0 then emit (Lac.make ~target (Lac.Wire v) ~area_gain:freed)
        end
        else if freed -. inv_area > 0.0 then
          emit (Lac.make ~target (Lac.Inv_wire v) ~area_gain:(freed -. inv_area))
      end
    end
  done;
  resub_candidates s ctx cone target pairs ~cap:pairs_per_target ~emit;
  resub_candidates s ctx cone target triples ~cap:config.triples_per_target ~emit

(* Cut-rewriting (SOP) candidates: emitted last. *)
let generate_sops (ctx : Round_ctx.t) config ~cuts s fr ~emit target =
  if config.sops_per_target > 0 then begin
    let target_cuts = cuts target in
    if target_cuts <> [] then sop_candidates s ctx config fr.cone target target_cuts ~emit
  end

(* Freshness against an entry built at generation [since]: no stamp in
   [stamps] (the memo's [def_at] or [sig_at]) of the given nodes is later. *)
let rec all_fresh stamps since = function
  | [] -> true
  | id :: rest -> stamps.(id) <= since && all_fresh stamps since rest

(* Every node between [leaves] and the node [id] has a fresh definition;
   [s.seen] marks the nodes visited under [stamp]. *)
let rec cone_fresh s m net ~since ~leaves ~stamp id =
  Array.mem id leaves
  || s.seen.(id) = stamp
  || begin
    s.seen.(id) <- stamp;
    m.def_at.(id) <= since
    && fanins_fresh s m net ~since ~leaves ~stamp (Network.fanins net id) 0
  end

and fanins_fresh s m net ~since ~leaves ~stamp fis i =
  i = Array.length fis
  || cone_fresh s m net ~since ~leaves ~stamp fis.(i)
     && fanins_fresh s m net ~since ~leaves ~stamp fis (i + 1)

(* One of [target]'s cuts is fresh: its leaves' signatures and the
   definitions between them and the target. *)
let cut_fresh s m (ctx : Round_ctx.t) ~since target leaves =
  Array.for_all (fun id -> m.sig_at.(id) <= since) leaves
  && begin
    s.window_stamp <- s.window_stamp + 1;
    cone_fresh s m ctx.net ~since ~leaves ~stamp:s.window_stamp target
  end

let rec cuts_fresh s m ctx ~since target = function
  | [] -> true
  | leaves :: rest ->
    cut_fresh s m ctx ~since target leaves && cuts_fresh s m ctx ~since target rest

(* The header list at [pos] of [codes] equals [l]. *)
let same_list codes pos l =
  let n = codes.(pos) in
  let rec same i = function
    | [] -> i = n
    | v :: vs -> i < n && codes.(pos + 1 + i) = v && same (i + 1) vs
  in
  same 0 l

(* The stored prefix equals the scratch's. *)
let same_prefix codes pos s =
  codes.(pos) = s.ranked
  && begin
    let rec same i =
      i = s.ranked || (codes.(pos + 1 + i) = s.prefix.(i) && same (i + 1))
    in
    same 0
  end

type outcome =
  | No_candidates
  | Reused
  | Rekeyed of entry  (** re-emitted, re-stamped to the current frame *)
  | Regenerated of entry * bool  (** and whether its SOP tail was copied *)

(* One target's candidates, re-emitted from the memo when they cannot
   have changed (see the memo's description above), or regenerated. The
   memo is only read here; the caller records the outcome. *)
let from_memo m (ctx : Round_ctx.t) config ~cuts s fr ~emit target =
  let e = m.entries.(target) in
  let codes = e.codes in
  let stored = Array.length codes > 0 in
  let since = if stored then codes.(0) else 0 in
  let mffc = Mffc.nodes fr.cone in
  (* What the SOP tail reads: the MFFC and the cuts. *)
  let tail_fresh =
    stored
    && same_list codes (list_at codes 1) mffc
    && all_fresh m.def_at since mffc
    && (config.sops_per_target = 0
        || Cut_enum.changed_at m.cut_store target <= since
           && cuts_fresh s m ctx ~since target (Cut_enum.cuts m.cut_store target))
  in
  let global_fresh () =
    same_list codes (list_at codes 2) fr.global
    && m.sig_at.(target) <= since
    && all_fresh m.sig_at since fr.global
  in
  if
    tail_fresh
    && codes.(1) = fr.pool_mask
    && same_list codes (list_at codes 0) fr.window
    && global_fresh ()
    && all_fresh m.sig_at since fr.pool
  then begin
    replay e ~target emit;
    Reused
  end
  else begin
    rank s ctx fr target;
    let b = s.entry in
    start b ~gen:m.gen ~pool_mask:fr.pool_mask ~window:fr.window ~mffc
      ~global:fr.global ~prefix:s.prefix ~ranked:s.ranked;
    if
      tail_fresh
      && global_fresh ()
      && same_prefix codes (list_at codes 3) s
      && begin
        let rec fresh i =
          i = s.ranked || (m.sig_at.(s.prefix.(i)) <= since && fresh (i + 1))
        in
        fresh 0
      end
    then begin
      let pos = lacs_start codes in
      let tail, first = sop_tail e in
      copy_lacs b e ~pos ~first:0;
      b.words.(b.tail_at) <- tail - pos;
      b.words.(b.tail_at + 1) <- first;
      replay_from e ~pos ~first:0 ~target emit;
      Rekeyed (finish b)
    end
    else begin
      let emit_new lac =
        add b lac;
        emit lac
      in
      generate_front ctx config s fr ~emit:emit_new target;
      mark_tail b;
      let copy_tail = tail_fresh && config.sops_per_target > 0 in
      if copy_tail then begin
        let pos, first = sop_tail e in
        copy_lacs b e ~pos ~first;
        replay_from e ~pos ~first ~target emit
      end
      else generate_sops ctx config ~cuts s fr ~emit:emit_new target;
      Regenerated (finish b, copy_tail)
    end
  end

let candidates_for_target ?memo (ctx : Round_ctx.t) config ~buckets ~cuts s ~emit
    target =
  match frame s ctx config ~buckets target with
  | None -> No_candidates
  | Some fr -> (
    match memo with
    | Some m -> from_memo m ctx config ~cuts s fr ~emit target
    | None ->
      rank s ctx fr target;
      generate_front ctx config s fr ~emit target;
      generate_sops ctx config ~cuts s fr ~emit target;
      Regenerated (no_entry, false))

let record m target = function
  | No_candidates -> m.entries.(target) <- no_entry
  | Reused -> m.reused <- m.reused + 1
  | Rekeyed e ->
    m.reused <- m.reused + 1;
    m.rekeyed <- m.rekeyed + 1;
    m.entries.(target) <- e
  | Regenerated (e, copied_tail) ->
    m.regenerated <- m.regenerated + 1;
    if copied_tail then m.sops_reused <- m.sops_reused + 1;
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
        ~state:(fun () -> scratch ?memo ctx config)
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
    let s = scratch ?memo ctx config in
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
