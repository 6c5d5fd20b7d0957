type op =
  | Const of bool
  | Input
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux

let arity_ok op k =
  match op with
  | Const _ | Input -> k = 0
  | Buf | Not -> k = 1
  | Mux -> k = 3
  | And | Or | Nand | Nor | Xor | Xnor -> k >= 2

let eval op vs =
  if not (arity_ok op (Array.length vs)) then
    invalid_arg "Gate.eval: arity violation";
  let all_true () = Array.for_all (fun v -> v) vs in
  let any_true () = Array.exists (fun v -> v) vs in
  let parity () = Array.fold_left (fun acc v -> acc <> v) false vs in
  match op with
  | Const b -> b
  | Input -> invalid_arg "Gate.eval: Input has no local function"
  | Buf -> vs.(0)
  | Not -> not vs.(0)
  | And -> all_true ()
  | Nand -> not (all_true ())
  | Or -> any_true ()
  | Nor -> not (any_true ())
  | Xor -> parity ()
  | Xnor -> not (parity ())
  | Mux -> if vs.(0) then vs.(1) else vs.(2)

let to_string = function
  | Const false -> "const0"
  | Const true -> "const1"
  | Input -> "input"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Mux -> "mux"

(* Distinct per operator; also the operator's code in [Network.digest]. *)
let tag = function
  | Const false -> 0
  | Const true -> 1
  | Input -> 2
  | Buf -> 3
  | Not -> 4
  | And -> 5
  | Or -> 6
  | Nand -> 7
  | Nor -> 8
  | Xor -> 9
  | Xnor -> 10
  | Mux -> 11

let equal a b = tag a = tag b
