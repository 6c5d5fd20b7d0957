open Accals_network
open Accals_lac
module Bitvec = Accals_bitvec.Bitvec
module Metric = Accals_metrics.Metric
module Pool = Accals_runtime.Pool
module Fan_out = Accals_runtime.Fan_out
module Overlay = Accals_sigdb.Overlay

(* Resimulation scratch. Every domain participating in a parallel shortlist
   pass owns a private, persistent [scratch] in the estimator's table, so
   it dies with the estimator; the estimator's own one serves the
   sequential entry points. All buffers are write-before-read, so a fresh
   scratch produces bit-identical results to a reused one — which is what
   makes per-domain reuse sound, and what stops signature-buffer
   allocations from bouncing between domains on every chunk. *)
type scratch = {
  overlay : Overlay.t;  (* flip-response cone evaluation and buffer pool *)
  flipped : Metric.terms;  (* error terms with the current target complemented *)
}

(* The estimator is persistent across rounds when driven through [refresh]:
   the expensive state (criticality masks, cone cache) is invalidated
   selectively from a change delta instead of being rebuilt. [create] is a
   [refresh] of an empty estimator with every node structurally dirty, so
   there is one derivation of the round state. *)
type t = {
  mutable ctx : Round_ctx.t;
  prepared : Metric.prepared;
  mutable base_error : float;
  mutable crit : Bitvec.t array;
  err_mask : Bitvec.t;  (* samples where the current circuit is wrong *)
  err_free : Bitvec.t;  (* complement of [err_mask] *)
  rank_mask : Bitvec.t;  (* the ranked target's [crit] AND [err_free] *)
  current : Metric.terms;  (* per-sample error terms; [err_mask] under ER *)
  cone_cache : (int, int array) Hashtbl.t;
  scratch : scratch;
  new_scratch : unit -> scratch;
  domain_scratches : (int, scratch) Hashtbl.t * Mutex.t;  (* by domain id *)
  evaluations : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
}

let samples t = t.ctx.Round_ctx.patterns.Sim.count

(* [flipped] starts as any buffer of the prepared kind: it is overwritten
   before every read. *)
let make_scratch ~samples prepared golden =
  {
    overlay = Overlay.create samples;
    flipped = Metric.terms prepared ~approx:golden;
  }

let base_error t = t.base_error

let refresh t ctx ~sig_changed ~struct_dirty =
  t.ctx <- ctx;
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
  t.crit <- Criticality.update ctx t.crit ~sig_changed ~struct_dirty;
  let out = Round_ctx.output_sigs ctx in
  Metric.wrong_into t.prepared ~approx:out t.err_mask;
  Bitvec.lognot_into t.err_mask ~dst:t.err_free;
  (match t.current with
   | Metric.Wrong _ -> ()
   | Metric.Distance _ -> Metric.terms_into t.prepared ~approx:out t.current);
  t.base_error <- Metric.total t.prepared t.current

let create ctx ~golden ~metric =
  let samples = ctx.Round_ctx.patterns.Sim.count in
  let prepared = Metric.prepare metric ~golden in
  let err_mask = Bitvec.create samples in
  let t =
    {
      ctx;
      prepared;
      base_error = 0.0;
      crit = [||];
      err_mask;
      err_free = Bitvec.create samples;
      rank_mask = Bitvec.create samples;
      current =
        (match metric with
         | Metric.Error_rate -> Metric.Wrong err_mask
         | Metric.Nmed | Metric.Mred | Metric.Med | Metric.Wce ->
           Metric.terms prepared ~approx:golden);
      cone_cache = Hashtbl.create 64;
      scratch = make_scratch ~samples prepared golden;
      new_scratch = (fun () -> make_scratch ~samples prepared golden);
      domain_scratches = (Hashtbl.create 4, Mutex.create ());
      evaluations = Atomic.make 0;
      cache_hits = Atomic.make 0;
      cache_misses = Atomic.make 0;
    }
  in
  refresh t ctx ~sig_changed:[]
    ~struct_dirty:(Array.make (Network.num_nodes ctx.Round_ctx.net) true);
  t

let domain_scratch t =
  let table, lock = t.domain_scratches in
  let d = (Domain.self () :> int) in
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table d with
      | Some s -> s
      | None ->
        let s = t.new_scratch () in
        Hashtbl.add table d s;
        s)

let take_buf s = Overlay.take s.overlay
let give_buf s b = Overlay.give s.overlay b

let candidate_signature_in t s lac =
  let sigs = t.ctx.Round_ctx.sigs in
  let dst = take_buf s in
  (match lac.Lac.kind with
   | Lac.Sop { leaves; cubes } ->
     let product = take_buf s in
     let negated = take_buf s in
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

(* Potential fresh errors of [lac]: observable changes on currently
   correct samples, [popcount ((cand XOR cur) AND mask)] with [mask] the
   target's criticality mask ANDed with the error-free samples and
   [ones = popcount mask]. Changes landing on already-wrong samples are
   free (they may even fix the error), so they do not count against the
   LAC. A complemented LAC's count is [ones] minus its base's, as the mask
   has no padding bits; only a SOP builds its signature. *)
let built_fresh_errors t s ~mask ~cur lac =
  let cand = candidate_signature_in t s lac in
  let n = Bitvec.masked_hamming mask cur cand in
  give_buf s cand;
  n

let fresh_errors t s ~mask ~ones lac =
  let sigs = t.ctx.Round_ctx.sigs in
  let cur = sigs.(lac.Lac.target) in
  match lac.Lac.kind with
  | Lac.Const0 -> Bitvec.and_popcount cur mask
  | Lac.Const1 -> ones - Bitvec.and_popcount cur mask
  | Lac.Wire v -> Bitvec.masked_hamming mask cur sigs.(v)
  | Lac.Inv_wire v -> ones - Bitvec.masked_hamming mask cur sigs.(v)
  | Lac.Gate2 (op, a, b) -> (
    let a = sigs.(a) and b = sigs.(b) in
    match op with
    | Gate.And -> Bitvec.masked_hamming_and mask cur a b
    | Gate.Nand -> ones - Bitvec.masked_hamming_and mask cur a b
    | Gate.Or -> Bitvec.masked_hamming_or mask cur a b
    | Gate.Nor -> ones - Bitvec.masked_hamming_or mask cur a b
    | Gate.Xor -> Bitvec.masked_hamming_xor mask cur a b
    | Gate.Xnor -> ones - Bitvec.masked_hamming_xor mask cur a b
    | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Mux ->
      built_fresh_errors t s ~mask ~cur lac)
  | Lac.Gate3 (op, a, b, c) -> (
    let a = sigs.(a) and b = sigs.(b) and c = sigs.(c) in
    match op with
    | Gate.And -> Bitvec.masked_hamming_and3 mask cur a b c
    | Gate.Nand -> ones - Bitvec.masked_hamming_and3 mask cur a b c
    | Gate.Or -> Bitvec.masked_hamming_or3 mask cur a b c
    | Gate.Nor -> ones - Bitvec.masked_hamming_or3 mask cur a b c
    | Gate.Xor -> Bitvec.masked_hamming_xor3 mask cur a b c
    | Gate.Xnor -> ones - Bitvec.masked_hamming_xor3 mask cur a b c
    | Gate.Mux -> Bitvec.masked_hamming_mux mask cur ~sel:a b c
    | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not ->
      built_fresh_errors t s ~mask ~cur lac)
  | Lac.Sop _ -> built_fresh_errors t s ~mask ~cur lac

let cone t target =
  match Hashtbl.find_opt t.cone_cache target with
  | Some c ->
    Atomic.incr t.cache_hits;
    c
  | None ->
    Atomic.incr t.cache_misses;
    let c =
      Structure.tfo_list ~fanouts:t.ctx.Round_ctx.fanouts ~order:t.ctx.Round_ctx.order
        ~topo_pos:t.ctx.Round_ctx.topo_pos target
    in
    Hashtbl.add t.cone_cache target c;
    c

(* The flip response of [target]: resimulate its fanout cone once with its
   signature complemented and leave the resulting error terms in
   [s.flipped]. A LAC only changes the target's value, and samples are
   independent, so on every sample a LAC's circuit matches either the
   current circuit or this flipped one. *)
let flip_response t s ~cone target =
  let net = t.ctx.Round_ctx.net in
  let sigs = t.ctx.Round_ctx.sigs in
  let o = s.overlay in
  let flipped = Overlay.take o in
  Bitvec.lognot_into sigs.(target) ~dst:flipped;
  Overlay.seed o target flipped;
  Overlay.propagate o net ~sigs ~roots:[] cone;
  Metric.terms_into t.prepared ~approx:(Overlay.outputs o net ~sigs) s.flipped;
  Overlay.release o

(* ΔE of each LAC of one target, in order. A LAC whose signature equals
   the target's scores 0 and is not counted as an evaluation; the others
   select, per sample, between the current and the flipped error terms on
   the samples where they change the target. The cone is walked at most
   once, for the first LAC that changes anything. *)
let target_deltas t s ~cone target lacs =
  let cur = t.ctx.Round_ctx.sigs.(target) in
  let walked = ref false in
  List.map
    (fun lac ->
      let diff = candidate_signature_in t s lac in
      Bitvec.logxor_into diff cur ~dst:diff;
      let delta =
        if Bitvec.is_zero diff then 0.0
        else begin
          Atomic.incr t.evaluations;
          if not !walked then begin
            flip_response t s ~cone target;
            walked := true
          end;
          Metric.select_total t.prepared ~diff ~current:t.current
            ~flipped:s.flipped
          -. t.base_error
        end
      in
      give_buf s diff;
      delta)
    lacs

let exact_delta t lac =
  let target = lac.Lac.target in
  List.hd (target_deltas t t.scratch ~cone:(cone t target) target [ lac ])

type mode = Exact | Approximate

(* The shortlist grouped by target, in first-occurrence order: each group
   is the target, its cone (looked up once, here, on the calling domain,
   so the cache counters do not depend on the pool and workers only read
   the cache) and its LACs with their shortlist positions. *)
let by_target t chosen =
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun i lac ->
      let target = lac.Lac.target in
      match Hashtbl.find_opt groups target with
      | Some members -> members := (i, lac) :: !members
      | None ->
        let members = ref [ (i, lac) ] in
        Hashtbl.add groups target members;
        order := (target, members) :: !order)
    chosen;
  List.rev_map (fun (target, members) -> (target, cone t target, List.rev !members)) !order

type shortlist = { ranked : (float * Lac.t) array; seen : int }

(* Candidates arrive grouped by target, so the target's mask and its
   popcount are computed once per run of equal targets. *)
let shortlist t ~k candidates =
  let top = Top_k.create ~k in
  let samples = float_of_int (samples t) in
  let mask = t.rank_mask in
  let current = ref (-1) and ones = ref 0 in
  candidates (fun lac ->
      let target = lac.Lac.target in
      if target <> !current then begin
        current := target;
        Bitvec.logand_into t.crit.(target) t.err_free ~dst:mask;
        ones := Bitvec.popcount mask
      end;
      let fresh = fresh_errors t t.scratch ~mask ~ones:!ones lac in
      Top_k.push top ~rank:(float_of_int fresh /. samples) ~gain:lac.Lac.area_gain lac);
  { ranked = Top_k.sorted top; seen = Top_k.pushed top }

let evaluate ?(mode = Exact) ?pool t { ranked; seen = _ } =
  let chosen = Array.map snd ranked in
  let deltas =
    match mode with
    | Approximate -> Array.map fst ranked
    | Exact ->
      let groups = by_target t chosen in
      let group_deltas s (target, cone, members) =
        target_deltas t s ~cone target (List.map snd members)
      in
      let per_group =
        match pool with
        | Some pool when Pool.jobs pool > 1 ->
          (* The flip responses are the estimator-bound phase: fan the
             distinct targets out over the pool, each chunk on a private
             resimulation scratch. *)
          Fan_out.map_list_with ~label:"estimate" pool
            ~state:(fun () -> domain_scratch t)
            ~f:group_deltas groups
        | _ -> List.map (group_deltas t.scratch) groups
      in
      let deltas = Array.make (Array.length chosen) 0.0 in
      List.iter2
        (fun (_, _, members) ds ->
          List.iter2 (fun (i, _) d -> deltas.(i) <- d) members ds)
        groups per_group;
      deltas
  in
  List.sort
    (fun a b ->
      match compare a.Lac.delta_error b.Lac.delta_error with
      | 0 -> compare b.Lac.area_gain a.Lac.area_gain
      | c -> c)
    (Array.to_list (Array.mapi (fun i lac -> Lac.with_delta lac deltas.(i)) chosen))

let score ?mode ?pool t ~shortlist:k lacs =
  evaluate ?mode ?pool t (shortlist t ~k (fun f -> List.iter f lacs))

let evaluations t = Atomic.get t.evaluations

let cache_stats t = (Atomic.get t.cache_hits, Atomic.get t.cache_misses)

let cone_cache_bytes t =
  let word = Sys.word_size / 8 in
  Hashtbl.fold
    (fun _ cone acc -> acc + ((Array.length cone + 3) * word))
    t.cone_cache 0

(* Memory-pressure relief. Cones are derived data, recomputed on demand
   from the same per-round views, so dropping them costs time but cannot
   change scores. Only call between rounds: during a parallel [evaluate] the
   workers read the cache concurrently. *)
let drop_cone_cache t =
  let n = Hashtbl.length t.cone_cache in
  Hashtbl.reset t.cone_cache;
  n
