(* Follow Buf chains to the real driver. *)
let rec resolve t id =
  match Network.op t id with
  | Gate.Buf -> resolve t (Network.fanins t id).(0)
  | _ -> id

let const_of t id =
  match Network.op t id with Gate.Const b -> Some b | _ -> None

(* Fanin bookkeeping without a table per node: [mark.(f) lsr 1 = id] when
   fanin [f] has been seen while simplifying node [id] in this sweep (every
   node is simplified once, so its id stamps its marks). Bit 0 is a
   per-fanin flag: odd parity for Xor/Xnor, not yet kept for And/Or. *)
let seen mark id f = mark.(f) lsr 1 = id

(* [fanins] with each fanin whose mark is [2 * id + 1] kept once, in order
   of first occurrence; keeping a fanin clears its flag. *)
let flagged mark id fanins count =
  let out = Array.make count 0 and k = ref 0 in
  for j = 0 to Array.length fanins - 1 do
    let f = fanins.(j) in
    if mark.(f) = (2 * id) + 1 then begin
      out.(!k) <- f;
      incr k;
      mark.(f) <- 2 * id
    end
  done;
  out

(* Simplified definition for an And/Or-family gate: drop absorbing/identity
   constants, deduplicate fanins, detect complementary pairs. [absorbing] is
   the fanin value that forces the output (false for And, true for Or);
   [invert] tells whether the gate complements (Nand/Nor). *)
let simplify_and_or t mark id fanins ~absorbing ~invert =
  let forced = ref false and count = ref 0 in
  for j = 0 to Array.length fanins - 1 do
    let f = fanins.(j) in
    match Network.op t f with
    | Gate.Const b -> if b = absorbing then forced := true
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux ->
      if not (seen mark id f) then begin
        mark.(f) <- (2 * id) + 1;
        incr count
      end
  done;
  (* Complementary pair: x and Not x together force the absorbing value. *)
  let complement_present = ref false in
  for j = 0 to Array.length fanins - 1 do
    let f = fanins.(j) in
    match Network.op t f with
    | Gate.Not -> if seen mark id (Network.fanins t f).(0) then complement_present := true
    | Gate.Const _ | Gate.Input | Gate.Buf | Gate.And | Gate.Or
    | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux -> ()
  done;
  if !forced || !complement_present then
    Network.replace ~check_cycle:false t id (Gate.Const (absorbing <> invert)) [||]
  else
    match !count with
    | 0 ->
      (* All fanins were the identity constant. *)
      Network.replace ~check_cycle:false t id (Gate.Const (absorbing = invert)) [||]
    | count ->
      let op = if count = 1 then (if invert then Gate.Not else Gate.Buf)
               else if invert then (if absorbing then Gate.Nor else Gate.Nand)
               else if absorbing then Gate.Or
               else Gate.And
      in
      Network.replace ~check_cycle:false t id op (flagged mark id fanins count)

let simplify_xor t mark id fanins ~invert =
  (* Count parity of each non-constant fanin; constants fold into the flip. *)
  let flip = ref invert and odd = ref 0 in
  for j = 0 to Array.length fanins - 1 do
    let f = fanins.(j) in
    match Network.op t f with
    | Gate.Const b -> if b then flip := not !flip
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux ->
      mark.(f) <- (if seen mark id f then mark.(f) lxor 1 else (2 * id) + 1);
      if mark.(f) land 1 = 1 then incr odd else decr odd
  done;
  match !odd with
  | 0 -> Network.replace ~check_cycle:false t id (Gate.Const !flip) [||]
  | odd ->
    let op =
      if odd = 1 then (if !flip then Gate.Not else Gate.Buf)
      else if !flip then Gate.Xnor
      else Gate.Xor
    in
    let keep = flagged mark id fanins odd in
    Array.sort Int.compare keep;
    Network.replace ~check_cycle:false t id op keep

let resolve_all t fanins =
  let out = Array.copy fanins in
  for i = 0 to Array.length out - 1 do
    out.(i) <- resolve t out.(i)
  done;
  out

let simplify_node t mark id =
  let fanins = resolve_all t (Network.fanins t id) in
  match Network.op t id with
  | Gate.Input | Gate.Const _ -> ()
  | Gate.Buf ->
    Network.replace ~check_cycle:false t id Gate.Buf fanins
  | Gate.Not -> begin
    match const_of t fanins.(0) with
    | Some b -> Network.replace ~check_cycle:false t id (Gate.Const (not b)) [||]
    | None ->
      (* Not (Not x) = x *)
      (match Network.op t fanins.(0) with
       | Gate.Not ->
         Network.replace ~check_cycle:false t id Gate.Buf
           [| (Network.fanins t fanins.(0)).(0) |]
       | Gate.Const _ | Gate.Input | Gate.Buf | Gate.And | Gate.Or
       | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ->
         Network.replace ~check_cycle:false t id Gate.Not fanins)
  end
  | Gate.And -> simplify_and_or t mark id fanins ~absorbing:false ~invert:false
  | Gate.Nand -> simplify_and_or t mark id fanins ~absorbing:false ~invert:true
  | Gate.Or -> simplify_and_or t mark id fanins ~absorbing:true ~invert:false
  | Gate.Nor -> simplify_and_or t mark id fanins ~absorbing:true ~invert:true
  | Gate.Xor -> simplify_xor t mark id fanins ~invert:false
  | Gate.Xnor -> simplify_xor t mark id fanins ~invert:true
  | Gate.Mux -> begin
    let sel = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    match const_of t sel, const_of t a, const_of t b with
    | Some true, _, _ -> Network.replace ~check_cycle:false t id Gate.Buf [| a |]
    | Some false, _, _ -> Network.replace ~check_cycle:false t id Gate.Buf [| b |]
    | None, Some true, Some false -> Network.replace ~check_cycle:false t id Gate.Buf [| sel |]
    | None, Some false, Some true -> Network.replace ~check_cycle:false t id Gate.Not [| sel |]
    | None, Some va, Some vb when va = vb ->
      Network.replace ~check_cycle:false t id (Gate.Const va) [||]
    | None, Some true, None -> Network.replace ~check_cycle:false t id Gate.Or [| sel; b |]
    | None, Some false, None ->
      (* ~sel AND b: build via Nor (sel, ~b)? Keep simple: Mux stays. *)
      if a = b then Network.replace ~check_cycle:false t id Gate.Buf [| a |]
      else Network.replace ~check_cycle:false t id Gate.Mux [| sel; a; b |]
    | None, None, Some false -> Network.replace ~check_cycle:false t id Gate.And [| sel; a |]
    | None, None, Some true | None, None, None | None, Some _, Some _ ->
      if a = b then Network.replace ~check_cycle:false t id Gate.Buf [| a |]
      else Network.replace ~check_cycle:false t id Gate.Mux [| sel; a; b |]
  end

let sweep t =
  let order = Structure.topo_order ~live_only:true t in
  let mark = Array.make (Network.num_nodes t) (-1) in
  Array.iter (fun id -> simplify_node t mark id) order;
  let outputs =
    Array.map2
      (fun nm id -> (nm, resolve t id))
      (Network.output_names t) (Network.outputs t)
  in
  Network.set_outputs t outputs

(* Strash keys: [-1 - Gate.tag op] followed by the fanin ids, sorted for
   commutative operators. The tag is the key's only negative entry, so
   sorting the whole key keeps it in front. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash = Array.fold_left (fun h x -> (h * 65599) + x) 0
end)

let strash t =
  let table = Key.create 256 in
  let order = Structure.topo_order ~live_only:true t in
  Array.iter
    (fun id ->
      if not (Network.is_input t id) then begin
        (* Rewire through any buffers created by earlier merges. *)
        let op = Network.op t id in
        let fanins = resolve_all t (Network.fanins t id) in
        Network.replace ~check_cycle:false t id op fanins;
        let key = Array.make (Array.length fanins + 1) (-1 - Gate.tag op) in
        Array.blit fanins 0 key 1 (Array.length fanins);
        (match op with
         | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
           Array.sort Int.compare key
         | Gate.Const _ | Gate.Input | Gate.Buf | Gate.Not | Gate.Mux -> ());
        match Key.find_opt table key with
        | Some rep when rep <> id ->
          Network.replace ~check_cycle:false t id Gate.Buf [| rep |]
        | Some _ -> ()
        | None -> Key.add table key id
      end)
    order;
  let outputs =
    Array.map2
      (fun nm id -> (nm, resolve t id))
      (Network.output_names t) (Network.outputs t)
  in
  Network.set_outputs t outputs

let compact t =
  let fresh = Network.create ~name:(Network.name t) () in
  let n = Network.num_nodes t in
  let live = Structure.live_set t in
  let remap = Array.make n (-1) in
  (* Keep every PI (even logically dead ones) so the interface is stable. *)
  Array.iteri
    (fun i id -> remap.(id) <- Network.add_input fresh (Network.input_names t).(i))
    (Network.inputs t);
  let order = Structure.topo_order ~live_only:false t in
  Array.iter
    (fun id ->
      if live.(id) && remap.(id) = -1 then
        remap.(id) <-
          Network.add_node fresh (Network.op t id)
            (Array.map (fun f -> remap.(f)) (Network.fanins t id)))
    order;
  Network.set_outputs fresh
    (Array.map2
       (fun nm id -> (nm, remap.(id)))
       (Network.output_names t) (Network.outputs t));
  fresh
