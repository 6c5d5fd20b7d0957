open Accals_network

let bus t name width =
  Array.init width (fun i -> Network.add_input t (Printf.sprintf "%s%d" name i))

let const_ t b = Network.add_node t (Gate.Const b) [||]
let not_ t a = Network.add_node t Gate.Not [| a |]
let buf t a = Network.add_node t Gate.Buf [| a |]
let and2 t a b = Network.add_node t Gate.And [| a; b |]
let or2 t a b = Network.add_node t Gate.Or [| a; b |]
let xor2 t a b = Network.add_node t Gate.Xor [| a; b |]
let nor2 t a b = Network.add_node t Gate.Nor [| a; b |]
let xnor2 t a b = Network.add_node t Gate.Xnor [| a; b |]
let mux t ~sel a b = Network.add_node t Gate.Mux [| sel; a; b |]

let rec tree f t = function
  | [||] -> invalid_arg "Builder: empty tree"
  | [| x |] -> x
  | xs ->
    let half = Array.length xs / 2 in
    let left = tree f t (Array.sub xs 0 half) in
    let right = tree f t (Array.sub xs half (Array.length xs - half)) in
    f t left right

let andn t xs = tree and2 t xs
let orn t xs = tree or2 t xs
let xorn t xs = tree xor2 t xs

let half_adder t a b = (xor2 t a b, and2 t a b)

let full_adder t a b c =
  let ab = xor2 t a b in
  let sum = xor2 t ab c in
  let carry = or2 t (and2 t a b) (and2 t ab c) in
  (sum, carry)

let ripple_add t a b ~cin =
  let width = Array.length a in
  if Array.length b <> width then invalid_arg "Builder.ripple_add: width mismatch";
  let sums = Array.make width 0 in
  let carry = ref cin in
  for i = 0 to width - 1 do
    let s, c = full_adder t a.(i) b.(i) !carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

let ripple_sub t a b =
  let nb = Array.map (not_ t) b in
  let one = const_ t true in
  let diff, carry = ripple_add t a nb ~cin:one in
  (diff, carry)

let mux_bus t ~sel a b =
  if Array.length a <> Array.length b then invalid_arg "Builder.mux_bus";
  Array.init (Array.length a) (fun i -> mux t ~sel a.(i) b.(i))

let zero_detect t xs = not_ t (orn t xs)

let set_output_bus _t name ids =
  Array.mapi (fun i id -> (Printf.sprintf "%s%d" name i, id)) ids
