open Accals_network

type t = int

let max_vars = 6

let rows vars =
  if vars < 0 || vars > max_vars then invalid_arg "Truth: too many variables";
  1 lsl vars

let mask vars = (1 lsl rows vars) - 1

let const_ vars b = if b then mask vars else 0

(* Projection patterns: var 0 = 0b...1010, var 1 = 0b...1100, etc. *)
let var vars i =
  if i < 0 || i >= vars then invalid_arg "Truth.var";
  let m = mask vars in
  let stripe = ref 0 in
  for row = 0 to rows vars - 1 do
    if row lsr i land 1 = 1 then stripe := !stripe lor (1 lsl row)
  done;
  !stripe land m

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

let eval_op vars op fanins =
  let m = mask vars in
  let fold f init = Array.fold_left f init fanins in
  match op with
  | Gate.Const b -> const_ vars b
  | Gate.Input -> invalid_arg "Truth.eval_op: Input"
  | Gate.Buf -> fanins.(0)
  | Gate.Not -> lognot vars fanins.(0)
  | Gate.And -> fold ( land ) m
  | Gate.Nand -> lognot vars (fold ( land ) m)
  | Gate.Or -> fold ( lor ) 0
  | Gate.Nor -> lognot vars (fold ( lor ) 0)
  | Gate.Xor -> fold ( lxor ) 0 land m
  | Gate.Xnor -> lognot vars (fold ( lxor ) 0 land m)
  | Gate.Mux ->
    (fanins.(0) land fanins.(1)) lor (lognot vars fanins.(0) land fanins.(2))

(* Per-node memo of one [of_cone] call: [value.(id)] is valid while
   [mark.(id) = stamp]. Leaves are entered first, so the walk stops at
   them. *)
type scratch = {
  mutable mark : int array;
  mutable value : t array;
  mutable stamp : int;
}

let scratch () = { mark = [||]; value = [||]; stamp = 0 }

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
  let stamp = s.stamp in
  Array.iteri
    (fun i id ->
      s.mark.(id) <- stamp;
      s.value.(id) <- var vars i)
    leaves;
  let rec compute id =
    if s.mark.(id) = stamp then s.value.(id)
    else begin
      let op = Network.op net id in
      if op = Gate.Input then invalid_arg "Truth.of_cone: cone escapes the cut";
      let t = eval_op vars op (Array.map compute (Network.fanins net id)) in
      s.mark.(id) <- stamp;
      s.value.(id) <- t;
      t
    end
  in
  compute root
