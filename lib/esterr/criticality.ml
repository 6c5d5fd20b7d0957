open Accals_network
open Accals_lac
module Bitvec = Accals_bitvec.Bitvec

(* Mask of patterns where the output of [id] flips if fanin [which] flips,
   all other fanins held at their simulated values. *)
let edge_sensitivity net sigs id which ~dst =
  let fis = Network.fanins net id in
  match Network.op net id with
  | Gate.Input | Gate.Const _ -> Bitvec.fill dst false
  | Gate.Buf | Gate.Not -> Bitvec.fill dst true
  | Gate.Xor | Gate.Xnor -> Bitvec.fill dst true
  | Gate.And | Gate.Nand ->
    Bitvec.fill dst true;
    Array.iteri
      (fun i f -> if i <> which then Bitvec.logand_into dst sigs.(f) ~dst)
      fis
  | Gate.Or | Gate.Nor ->
    (* The AND of the other fanins' complements, by De Morgan the
       complement of their OR: no temporary. *)
    Bitvec.fill dst false;
    Array.iteri
      (fun i f -> if i <> which then Bitvec.logor_into dst sigs.(f) ~dst)
      fis;
    Bitvec.lognot_into dst ~dst
  | Gate.Mux ->
    (match which with
     | 0 -> Bitvec.logxor_into sigs.(fis.(1)) sigs.(fis.(2)) ~dst
     | 1 -> Bitvec.blit ~src:sigs.(fis.(0)) ~dst
     | _ -> Bitvec.lognot_into sigs.(fis.(0)) ~dst)

(* A node's mask is the OR, over its live consumers [c] and every fanin
   position [which] of [c] holding the node, of
   [edge_sensitivity c which & crit c], plus all-ones when the node drives
   a primary output. Only nodes whose terms may have changed (seeds) or
   with a consumer whose mask changed are recomputed, and recomputation
   stops propagating wherever the recomputed mask is bit-equal to the
   stored one. *)
let update (ctx : Round_ctx.t) crit ~sig_changed ~struct_dirty =
  let net = ctx.net in
  let n = Network.num_nodes net in
  let samples = ctx.patterns.Sim.count in
  let dummy = Bitvec.create 0 in
  let crit =
    if Array.length crit >= n then crit
    else Array.append crit (Array.make (n - Array.length crit) dummy)
  in
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
      Array.iter (fun c -> Array.iter mark (Network.fanins net c)) ctx.fanouts.(s))
    sig_changed;
  let drives = Array.make n false in
  Array.iter (fun id -> drives.(id) <- true) (Network.outputs net);
  let changed = Array.make n false in
  let sens = Bitvec.create samples in
  let acc = Bitvec.create samples in
  (* Reverse topological sweep: every consumer is final before its fanins
     pull from it. *)
  for i = Array.length ctx.order - 1 downto 0 do
    let id = ctx.order.(i) in
    if seed.(id) || Array.exists (fun c -> changed.(c)) ctx.fanouts.(id) then begin
      Bitvec.fill acc drives.(id);
      Array.iter
        (fun c ->
          Array.iteri
            (fun which f ->
              if f = id then begin
                edge_sensitivity net ctx.sigs c which ~dst:sens;
                Bitvec.logand_into sens crit.(c) ~dst:sens;
                Bitvec.logor_into acc sens ~dst:acc
              end)
            (Network.fanins net c))
        ctx.fanouts.(id);
      let old = crit.(id) in
      if not (Bitvec.length old > 0 && Bitvec.equal acc old) then begin
        let buf = if Bitvec.length old > 0 then old else Bitvec.create samples in
        Bitvec.blit ~src:acc ~dst:buf;
        crit.(id) <- buf;
        changed.(id) <- true
      end
    end
  done;
  (* Dead nodes drop to the shared zero-length dummy. *)
  for id = 0 to n - 1 do
    if (not ctx.live.(id)) && Bitvec.length crit.(id) > 0 then crit.(id) <- dummy
  done;
  crit

let masks (ctx : Round_ctx.t) =
  update ctx [||] ~sig_changed:[]
    ~struct_dirty:(Array.make (Network.num_nodes ctx.net) true)
