open Accals_network
open Accals_lac
module Bitvec = Accals_bitvec.Bitvec
module Metric = Accals_metrics.Metric
module Pool = Accals_runtime.Pool
module Fan_out = Accals_runtime.Fan_out
module Arena = Accals_sigdb.Arena

(* Resimulation scratch. Every domain participating in a parallel shortlist
   pass owns a private, persistent [scratch] (an {!Arena} instance that
   lives as long as the estimator); the estimator's own one serves the
   sequential entry points. All buffers are write-before-read, so a fresh
   scratch produces bit-identical results to a reused one — which is what
   makes per-domain reuse sound, and what stops signature-buffer
   allocations from bouncing between domains on every chunk. *)
type scratch = {
  overlay : Bitvec.t array;  (* per-node substituted signatures *)
  have : bool array;  (* overlay validity *)
  mutable pool : Bitvec.t list;  (* recycled signature buffers *)
  tmp : Bitvec.t;
}

(* The estimator is persistent across rounds when driven through [refresh]:
   the expensive state (criticality masks, cone cache) is invalidated
   selectively from a change delta instead of being rebuilt. [create]
   followed by per-round [refresh] is value-identical to a fresh [create]
   per round. *)
type t = {
  mutable ctx : Round_ctx.t;
  golden : Bitvec.t array;
  prepared : Metric.prepared;
  metric : Metric.kind;
  mutable base_error : float;
  mutable crit : Bitvec.t array;
  err_mask : Bitvec.t;  (* samples where the current circuit is wrong *)
  err_free : Bitvec.t;  (* complement of [err_mask] *)
  cone_cache : (int, int array) Hashtbl.t;
  mutable scratch : scratch;
  arena : scratch ref Arena.t;  (* per-worker-domain scratches *)
  evaluations : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
}

let samples t = t.ctx.Round_ctx.patterns.Sim.count

let compute_err_mask ctx golden =
  let out = Round_ctx.output_sigs ctx in
  let n = ctx.Round_ctx.patterns.Sim.count in
  let err = Bitvec.create n in
  let tmp = Bitvec.create n in
  Array.iteri
    (fun i g ->
      Bitvec.logxor_into g out.(i) ~dst:tmp;
      Bitvec.logor_into err tmp ~dst:err)
    golden;
  err

let make_scratch nodes samples =
  let dummy = Bitvec.create 0 in
  {
    overlay = Array.make nodes dummy;
    have = Array.make nodes false;
    pool = [];
    tmp = Bitvec.create samples;
  }

(* This domain's persistent scratch, grown (never shrunk) to the current
   node count. Buffer pool and tmp survive a grow, like [refresh]'s
   resize of the sequential scratch. *)
let domain_scratch t =
  let cell = Arena.local t.arena in
  let s = !cell in
  let n = Network.num_nodes t.ctx.Round_ctx.net in
  if Array.length s.overlay < n then begin
    let grown =
      {
        overlay = Array.make n (Bitvec.create 0);
        have = Array.make n false;
        pool = s.pool;
        tmp = s.tmp;
      }
    in
    cell := grown;
    grown
  end
  else s

let create ctx ~golden ~metric =
  let approx = Round_ctx.output_sigs ctx in
  let base_error = Metric.measure metric ~golden ~approx in
  let n = Network.num_nodes ctx.Round_ctx.net in
  let err_mask = compute_err_mask ctx golden in
  {
    ctx;
    golden;
    prepared = Metric.prepare metric ~golden;
    metric;
    base_error;
    crit = Criticality.masks ctx;
    err_mask;
    err_free = Bitvec.lognot err_mask;
    cone_cache = Hashtbl.create 64;
    scratch = make_scratch n ctx.Round_ctx.patterns.Sim.count;
    arena =
      (let samples = ctx.Round_ctx.patterns.Sim.count in
       Arena.create (fun () -> ref (make_scratch 0 samples)));
    evaluations = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
  }

let base_error t = t.base_error

(* Selective criticality update. A node's mask is the OR, over its live
   consumers [c] and every fanin position [which] of [c] holding the node,
   of [edge_sensitivity c which & crit c], plus all-ones when the node
   drives a primary output — the pull form of the push accumulation in
   [Criticality.masks]; OR-ing the same terms in either direction is
   bit-identical. Only nodes whose terms may have changed (seeds) or with
   a consumer whose mask changed are recomputed, and recomputation stops
   propagating wherever the recomputed mask is bit-equal to the stored
   one. *)
let refresh_crit t ~sig_changed ~struct_dirty =
  let ctx = t.ctx in
  let net = ctx.Round_ctx.net in
  let n = Network.num_nodes net in
  let samples = ctx.Round_ctx.patterns.Sim.count in
  let dummy = Bitvec.create 0 in
  if Array.length t.crit < n then begin
    let crit = Array.make n dummy in
    Array.blit t.crit 0 crit 0 (Array.length t.crit);
    t.crit <- crit
  end;
  let seed = Array.make n false in
  let mark id = seed.(id) <- true in
  (* Structurally touched nodes: their own pull set changed (definition,
     fanouts, liveness or output-driver status), and their fanins see
     changed edge sensitivities. *)
  Array.iteri
    (fun id dirty ->
      if dirty then begin
        mark id;
        Array.iter mark (Network.fanins net id)
      end)
    struct_dirty;
  (* A changed signature changes the edge sensitivities of every sibling
     fanin position at each live consumer (including the node itself when
     it appears in several positions). *)
  List.iter
    (fun s ->
      Array.iter
        (fun c -> Array.iter mark (Network.fanins net c))
        ctx.Round_ctx.fanouts.(s))
    sig_changed;
  let drives = Array.make n false in
  Array.iter (fun id -> drives.(id) <- true) (Network.outputs net);
  let changed = Array.make n false in
  let sens = Bitvec.create samples in
  let acc = Bitvec.create samples in
  let order = ctx.Round_ctx.order in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    let needs =
      seed.(id) || Array.exists (fun c -> changed.(c)) ctx.Round_ctx.fanouts.(id)
    in
    if needs then begin
      Bitvec.fill acc drives.(id);
      Array.iter
        (fun c ->
          let fis = Network.fanins net c in
          Array.iteri
            (fun which f ->
              if f = id then begin
                Criticality.edge_sensitivity net ctx.Round_ctx.sigs c which
                  ~dst:sens;
                Bitvec.logand_into sens t.crit.(c) ~dst:sens;
                Bitvec.logor_into acc sens ~dst:acc
              end)
            fis)
        ctx.Round_ctx.fanouts.(id);
      let old = t.crit.(id) in
      if Bitvec.length old > 0 && Bitvec.equal acc old then ()
      else begin
        let buf = if Bitvec.length old > 0 then old else Bitvec.create samples in
        Bitvec.blit ~src:acc ~dst:buf;
        t.crit.(id) <- buf;
        changed.(id) <- true
      end
    end
  done;
  (* Dead nodes drop to the shared dummy, as in a fresh [Criticality.masks]. *)
  for id = 0 to n - 1 do
    if (not ctx.Round_ctx.live.(id)) && Bitvec.length t.crit.(id) > 0 then
      t.crit.(id) <- dummy
  done

let refresh t ctx ~sig_changed ~struct_dirty =
  t.ctx <- ctx;
  let n = Network.num_nodes ctx.Round_ctx.net in
  (* Cone cache: a cached transitive-fanout list stays valid as long as
     neither the target nor any member was structurally touched (a new
     member can only attach through an edge or liveness change at an
     existing member or at the target). Stale topological *order* within a
     surviving cone is harmless: the cone's internal edges are untouched,
     so the old relative order is still a valid schedule. *)
  Hashtbl.filter_map_inplace
    (fun target cone ->
      if
        struct_dirty.(target)
        || Array.exists (fun m -> struct_dirty.(m)) cone
      then None
      else Some cone)
    t.cone_cache;
  refresh_crit t ~sig_changed ~struct_dirty;
  let out = Round_ctx.output_sigs ctx in
  Bitvec.fill t.err_mask false;
  Array.iteri
    (fun i g ->
      Bitvec.logxor_into g out.(i) ~dst:t.scratch.tmp;
      Bitvec.logor_into t.err_mask t.scratch.tmp ~dst:t.err_mask)
    t.golden;
  Bitvec.lognot_into t.err_mask ~dst:t.err_free;
  t.base_error <- Metric.measure t.metric ~golden:t.golden ~approx:out;
  if Array.length t.scratch.overlay < n then
    t.scratch <-
      {
        overlay = Array.make n (Bitvec.create 0);
        have = Array.make n false;
        pool = t.scratch.pool;
        tmp = t.scratch.tmp;
      }

let take_buf t s =
  match s.pool with
  | b :: rest ->
    s.pool <- rest;
    b
  | [] -> Bitvec.create (samples t)

let give_buf s b = s.pool <- b :: s.pool

let candidate_signature_in t s lac =
  let sigs = t.ctx.Round_ctx.sigs in
  let dst = take_buf t s in
  (match lac.Lac.kind with
   | Lac.Sop { leaves; cubes } ->
     let product = take_buf t s in
     let negated = take_buf t s in
     Bitvec.fill dst false;
     List.iter
       (fun cube ->
         Bitvec.fill product true;
         Array.iteri
           (fun i leaf ->
             if cube.Accals_twolevel.Qm.mask lsr i land 1 = 1 then
               if cube.Accals_twolevel.Qm.value lsr i land 1 = 1 then
                 Bitvec.logand_into product sigs.(leaf) ~dst:product
               else begin
                 Bitvec.lognot_into sigs.(leaf) ~dst:negated;
                 Bitvec.logand_into product negated ~dst:product
               end)
           leaves;
         Bitvec.logor_into dst product ~dst)
       cubes;
     give_buf s product;
     give_buf s negated
   | Lac.Const0 | Lac.Const1 | Lac.Wire _ | Lac.Inv_wire _ | Lac.Gate2 _
   | Lac.Gate3 _ ->
     let op, fanins = Lac.new_definition lac in
     Sim.eval_op_into op ~lookup:(Array.get sigs) fanins ~dst);
  dst

let candidate_signature t lac = candidate_signature_in t t.scratch lac

let rank_score_in t s lac =
  let target = lac.Lac.target in
  let cand = candidate_signature_in t s lac in
  Bitvec.logxor_into cand t.ctx.Round_ctx.sigs.(target) ~dst:s.tmp;
  Bitvec.logand_into s.tmp t.crit.(target) ~dst:s.tmp;
  give_buf s cand;
  (* Potential fresh errors: observable changes on currently-correct
     samples. Changes landing on already-wrong samples are free (they may
     even fix the error), so they do not count against the LAC. *)
  Bitvec.logand_into s.tmp t.err_free ~dst:s.tmp;
  float_of_int (Bitvec.popcount s.tmp) /. float_of_int (samples t)

let rank_score t lac = rank_score_in t t.scratch lac

let cone t target =
  match Hashtbl.find_opt t.cone_cache target with
  | Some c ->
    Atomic.incr t.cache_hits;
    c
  | None ->
    Atomic.incr t.cache_misses;
    let c =
      Structure.tfo_list t.ctx.Round_ctx.net ~fanouts:t.ctx.Round_ctx.fanouts
        ~topo_pos:t.ctx.Round_ctx.topo_pos target
    in
    Hashtbl.add t.cone_cache target c;
    c

let exact_delta_in t s lac =
  let ctx = t.ctx in
  let net = ctx.Round_ctx.net in
  let sigs = ctx.Round_ctx.sigs in
  let target = lac.Lac.target in
  let cand = candidate_signature_in t s lac in
  if Bitvec.equal cand sigs.(target) then begin
    give_buf s cand;
    0.0
  end
  else begin
    Atomic.incr t.evaluations;
    let touched = ref [ target ] in
    s.overlay.(target) <- cand;
    s.have.(target) <- true;
    let lookup id = if s.have.(id) then s.overlay.(id) else sigs.(id) in
    Array.iter
      (fun id ->
        let fis = Network.fanins net id in
        let dirty = Array.exists (fun f -> s.have.(f)) fis in
        if dirty then begin
          let dst = take_buf t s in
          Sim.eval_node_into net ~lookup id ~dst;
          if Bitvec.equal dst sigs.(id) then give_buf s dst
          else begin
            s.overlay.(id) <- dst;
            s.have.(id) <- true;
            touched := id :: !touched
          end
        end)
      (cone t target);
    let approx = Array.map lookup (Network.outputs net) in
    let e_new = Metric.measure_prepared t.prepared ~approx in
    List.iter
      (fun id ->
        give_buf s s.overlay.(id);
        s.have.(id) <- false)
      !touched;
    e_new -. t.base_error
  end

let exact_delta t lac = exact_delta_in t t.scratch lac

type mode = Exact | Approximate

let score ?(mode = Exact) ?pool t ~shortlist lacs =
  (* Bounded selection of the shortlist instead of sorting all candidates:
     the order is total (rank, then larger area gain, then original
     position), so this equals the former stable sort + take. *)
  let compare_ranked (ra, ia, la) (rb, ib, lb) =
    match compare ra rb with
    | 0 -> (
      match compare lb.Lac.area_gain la.Lac.area_gain with
      | 0 -> compare ia ib
      | c -> c)
    | c -> c
  in
  let ranked = List.mapi (fun i lac -> (rank_score t lac, i, lac)) lacs in
  let chosen =
    List.map
      (fun (_, _, lac) -> lac)
      (Top_k.smallest ~k:shortlist ~compare:compare_ranked ranked)
  in
  let scored =
    match (mode, pool) with
    | Exact, Some pool when Pool.jobs pool > 1 ->
      (* Exact-on-samples cone resimulation is the estimator-bound phase:
         fan the shortlist out over the pool. Cones are prefetched here so
         workers only ever read the cache; each chunk of candidates gets a
         private resimulation scratch. *)
      List.iter (fun lac -> ignore (cone t lac.Lac.target)) chosen;
      Fan_out.map_list_with ~label:"estimate" pool
        ~state:(fun () -> domain_scratch t)
        ~f:(fun s lac -> Lac.with_delta lac (exact_delta_in t s lac))
        chosen
    | Exact, _ ->
      List.map (fun lac -> Lac.with_delta lac (exact_delta t lac)) chosen
    | Approximate, _ ->
      List.map (fun lac -> Lac.with_delta lac (rank_score t lac)) chosen
  in
  List.sort
    (fun a b ->
      match compare a.Lac.delta_error b.Lac.delta_error with
      | 0 -> compare b.Lac.area_gain a.Lac.area_gain
      | c -> c)
    scored

let evaluations t = Atomic.get t.evaluations

let cache_stats t = (Atomic.get t.cache_hits, Atomic.get t.cache_misses)

let cone_cache_bytes t =
  let word = Sys.word_size / 8 in
  Hashtbl.fold
    (fun _ cone acc -> acc + ((Array.length cone + 3) * word))
    t.cone_cache 0

(* Memory-pressure relief. Cones are derived data, recomputed on demand
   from the same per-round views, so dropping them costs time but cannot
   change scores. Only call between rounds: during a parallel [score] the
   workers read the cache concurrently. *)
let drop_cone_cache t =
  let n = Hashtbl.length t.cone_cache in
  Hashtbl.reset t.cone_cache;
  n
