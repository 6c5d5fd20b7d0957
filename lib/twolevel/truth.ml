open Accals_network

type t = int

let max_vars = 6

let rows vars =
  if vars < 0 || vars > max_vars then invalid_arg "Truth: too many variables";
  1 lsl vars

let mask vars = (1 lsl rows vars) - 1

let const_ vars b = if b then mask vars else 0

(* Projection patterns: var 0 = 0b...1010, var 1 = 0b...1100, etc.
   [projections.(vars).(i)] is [var vars i]. *)
let projections =
  Array.init (max_vars + 1) (fun vars ->
      Array.init vars (fun i ->
          let stripe = ref 0 in
          for row = 0 to rows vars - 1 do
            if row lsr i land 1 = 1 then stripe := !stripe lor (1 lsl row)
          done;
          !stripe land mask vars))

let var vars i =
  if i < 0 || i >= vars then invalid_arg "Truth.var";
  if vars > max_vars then invalid_arg "Truth: too many variables";
  projections.(vars).(i)

let get t m = t lsr m land 1 = 1

let set t m b = if b then t lor (1 lsl m) else t land lnot (1 lsl m)

let lognot vars t = lnot t land mask vars

let ones vars t =
  let m = mask vars in
  let v = ref (t land m) in
  let count = ref 0 in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr count
  done;
  !count


(* Per-node memo of one [of_cone] call: [value.(id)] is valid while
   [mark.(id) = stamp]. Leaves are entered first, so the walk stops at
   them. *)
type scratch = {
  mutable mark : int array;
  mutable value : t array;
  mutable stamp : int;
}

let scratch () = { mark = [||]; value = [||]; stamp = 0 }

(* [root]'s table over the cone marked in [s]: each node's op evaluated
   over its fanins' tables, memoized in [s] for the rest of the walk. *)
let rec compute s net vars id =
  if s.mark.(id) = s.stamp then s.value.(id)
  else begin
    let fis = Network.fanins net id in
    let t =
      match Network.op net id with
      | Gate.Const b -> const_ vars b
      | Gate.Input -> invalid_arg "Truth.of_cone: cone escapes the cut"
      | Gate.Buf -> compute s net vars fis.(0)
      | Gate.Not -> lognot vars (compute s net vars fis.(0))
      | Gate.And -> fold_and s net vars fis 0 (mask vars)
      | Gate.Nand -> lognot vars (fold_and s net vars fis 0 (mask vars))
      | Gate.Or -> fold_or s net vars fis 0 0
      | Gate.Nor -> lognot vars (fold_or s net vars fis 0 0)
      | Gate.Xor -> fold_xor s net vars fis 0 0 land mask vars
      | Gate.Xnor -> lognot vars (fold_xor s net vars fis 0 0 land mask vars)
      | Gate.Mux ->
        let sel = compute s net vars fis.(0) in
        let a = compute s net vars fis.(1) in
        let b = compute s net vars fis.(2) in
        (sel land a) lor (lognot vars sel land b)
    in
    s.mark.(id) <- s.stamp;
    s.value.(id) <- t;
    t
  end

and fold_and s net vars fis i acc =
  if i = Array.length fis then acc
  else fold_and s net vars fis (i + 1) (acc land compute s net vars fis.(i))

and fold_or s net vars fis i acc =
  if i = Array.length fis then acc
  else fold_or s net vars fis (i + 1) (acc lor compute s net vars fis.(i))

and fold_xor s net vars fis i acc =
  if i = Array.length fis then acc
  else fold_xor s net vars fis (i + 1) (acc lxor compute s net vars fis.(i))

let of_cone ?(scratch = scratch ()) net ~leaves ~root =
  let vars = Array.length leaves in
  if vars > max_vars then invalid_arg "Truth.of_cone: too many leaves";
  let s = scratch in
  let n = Network.num_nodes net in
  if Array.length s.mark < n then begin
    s.mark <- Array.make n 0;
    s.value <- Array.make n 0;
    s.stamp <- 0
  end;
  s.stamp <- s.stamp + 1;
  for i = 0 to vars - 1 do
    s.mark.(leaves.(i)) <- s.stamp;
    s.value.(leaves.(i)) <- var vars i
  done;
  compute s net vars root
