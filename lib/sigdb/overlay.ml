open Accals_network
module Bitvec = Accals_bitvec.Bitvec

type counters = {
  mutable resim_nodes : int;
  mutable resim_converged : int;
  mutable buffers_recycled : int;
  mutable journal_undos : int;
  mutable journal_entries_undone : int;
}

type t = {
  samples : int;
  mutable value : Bitvec.t array;  (* overlaid signatures *)
  mutable have : bool array;  (* [value] validity *)
  mutable root : bool array;  (* evaluated whatever their fanins *)
  mutable touched : int list;  (* overlaid nodes, newest first *)
  mutable free : Bitvec.t list;  (* recycled signature buffers *)
  counters : counters;
}

let dummy = Bitvec.create 0

let create samples =
  {
    samples;
    value = [||];
    have = [||];
    root = [||];
    touched = [];
    free = [];
    counters =
      {
        resim_nodes = 0;
        resim_converged = 0;
        buffers_recycled = 0;
        journal_undos = 0;
        journal_entries_undone = 0;
      };
  }

let counters t = t.counters

let take t =
  match t.free with
  | b :: rest ->
    t.free <- rest;
    t.counters.buffers_recycled <- t.counters.buffers_recycled + 1;
    b
  | [] -> Bitvec.create t.samples

let give t b = if Bitvec.length b > 0 then t.free <- b :: t.free

let pool_bytes t =
  let bpw = Bitvec.bits_per_word in
  List.fold_left
    (fun acc b -> acc + ((Bitvec.length b + bpw - 1) / bpw * (bpw / 8)))
    0 t.free

let trim t =
  let n = List.length t.free in
  t.free <- [];
  n

(* Room for node ids below [n]; the arrays grow, never shrink. *)
let reserve t n =
  let cap = Array.length t.have in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let grow a x =
      let a' = Array.make cap' x in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.value <- grow t.value dummy;
    t.have <- grow t.have false;
    t.root <- grow t.root false
  end

let seed t id b =
  reserve t (id + 1);
  t.value.(id) <- b;
  t.have.(id) <- true;
  t.touched <- id :: t.touched

let lookup t sigs id = if t.have.(id) then t.value.(id) else sigs.(id)

(* [Array.exists] would allocate a closure per cone node. *)
let rec reads_overlay have fis i =
  i < Array.length fis && (have.(fis.(i)) || reads_overlay have fis (i + 1))

(* Evaluate each node of [order] that is a root or reads an overlaid fanin;
   a result equal to the stored signature is dropped (the cone is pruned
   there), any other is overlaid. [in_place] also stores it in [sigs],
   handing the displaced buffer to the pool at once. *)
let walk ~in_place t net ~sigs ~roots order =
  reserve t (Network.num_nodes net);
  List.iter (fun r -> t.root.(r) <- true) roots;
  let c = t.counters in
  let have = t.have in
  let lookup = lookup t sigs in
  Array.iter
    (fun id ->
      if t.root.(id) || reads_overlay have (Network.fanins net id) 0 then begin
        let dst = take t in
        c.resim_nodes <- c.resim_nodes + 1;
        Sim.eval_node_into net ~lookup id ~dst;
        let old = sigs.(id) in
        if Bitvec.length old > 0 && Bitvec.equal dst old then begin
          give t dst;
          c.resim_converged <- c.resim_converged + 1
        end
        else begin
          if in_place then begin
            if not (Network.is_input net id) then give t old;
            sigs.(id) <- dst
          end;
          t.value.(id) <- dst;
          have.(id) <- true;
          t.touched <- id :: t.touched
        end
      end)
    order;
  List.iter (fun r -> t.root.(r) <- false) roots

(* Empty the overlay, handing its buffers back to the pool if [recycle]. *)
let clear t ~recycle =
  List.iter
    (fun id ->
      if recycle then give t t.value.(id);
      t.value.(id) <- dummy;
      t.have.(id) <- false)
    t.touched;
  t.touched <- []

let propagate = walk ~in_place:false

let commit t net ~sigs ~roots order =
  walk ~in_place:true t net ~sigs ~roots order;
  let changed = t.touched in
  clear t ~recycle:false;
  changed

let outputs t net ~sigs = Array.map (lookup t sigs) (Network.outputs net)

let release t = clear t ~recycle:true
