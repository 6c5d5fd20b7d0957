(* Shared helpers for the test suites. *)
open Accals_network

let bits_of_int v w = Array.init w (fun i -> v lsr i land 1 = 1)

let int_of_bits bits =
  Array.fold_left
    (fun (acc, i) b -> ((acc lor (if b then 1 lsl i else 0)), i + 1))
    (0, 0) bits
  |> fst

(* A gate operator applied to fanin truth tables over [vars] variables:
   the reference for [Truth.of_cone]'s per-node evaluation. *)
let truth_eval_op vars op fanins =
  let module Truth = Accals_twolevel.Truth in
  let m = Truth.mask vars in
  let fold f init = Array.fold_left f init fanins in
  match op with
  | Gate.Const b -> Truth.const_ vars b
  | Gate.Input -> invalid_arg "truth_eval_op: Input"
  | Gate.Buf -> fanins.(0)
  | Gate.Not -> Truth.lognot vars fanins.(0)
  | Gate.And -> fold ( land ) m
  | Gate.Nand -> Truth.lognot vars (fold ( land ) m)
  | Gate.Or -> fold ( lor ) 0
  | Gate.Nor -> Truth.lognot vars (fold ( lor ) 0)
  | Gate.Xor -> fold ( lxor ) 0 land m
  | Gate.Xnor -> Truth.lognot vars (fold ( lxor ) 0 land m)
  | Gate.Mux ->
    (fanins.(0) land fanins.(1))
    lor (Truth.lognot vars fanins.(0) land fanins.(2))

(* The primary-output vector of one pattern, read from node signatures. *)
let sim_output_values t sigs ~pattern =
  Array.map (fun id -> Accals_bitvec.Bitvec.get sigs.(id) pattern) (Network.outputs t)

(* Evaluate a network with input values given by name. *)
let eval_named net env =
  let values =
    Array.map
      (fun nm ->
        match List.assoc_opt nm env with
        | Some b -> b
        | None -> false)
      (Network.input_names net)
  in
  Network.eval net values

(* Environment binding bus [name]0..[name]{w-1} to the bits of [v]. *)
let bus_env name v w =
  List.init w (fun i -> (Printf.sprintf "%s%d" name i, v lsr i land 1 = 1))

let out_int ?(prefix = "") net outs =
  (* Integer value of outputs whose name starts with [prefix], ordered by
     their numeric suffix. *)
  let names = Network.output_names net in
  let indexed = ref [] in
  Array.iteri
    (fun i nm ->
      if prefix = "" || (String.length nm > String.length prefix
                         && String.sub nm 0 (String.length prefix) = prefix)
      then
        let suffix = String.sub nm (String.length prefix)
                       (String.length nm - String.length prefix) in
        match int_of_string_opt suffix with
        | Some k -> indexed := (k, outs.(i)) :: !indexed
        | None -> ())
    names;
  List.fold_left
    (fun acc (k, b) -> if b then acc lor (1 lsl k) else acc)
    0 !indexed

let qcheck_case ?(count = 100) ?long_factor ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?long_factor ?print ~name gen prop)
