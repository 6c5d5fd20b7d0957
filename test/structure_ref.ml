(* The structural passes as they stood before they dropped their per-node
   tables, kept as oracles: Structure's topological order, fanout lists and
   fanout counts deduplicate each node's fanins through a Hashtbl, and
   Cleanup's sweep and strash deduplicate through a Hashtbl and key the
   strash table on a formatted string. test_structure compares the
   library with these. *)

open Accals_network

let live_set = Structure.live_set

(* Kahn's algorithm over the relevant node set. *)
let topo_order ?live ?(live_only = true) t =
  let n = Network.num_nodes t in
  let keep =
    match live with
    | Some l -> l
    | None -> if live_only then live_set t else Array.make n true
  in
  let indeg = Array.make n 0 in
  let fanout_lists = Array.make n [] in
  for id = 0 to n - 1 do
    if keep.(id) then begin
      let seen_fanin = Hashtbl.create 4 in
      Array.iter
        (fun f ->
          if keep.(f) && not (Hashtbl.mem seen_fanin f) then begin
            Hashtbl.add seen_fanin f ();
            indeg.(id) <- indeg.(id) + 1;
            fanout_lists.(f) <- id :: fanout_lists.(f)
          end)
        (Network.fanins t id)
    end
  done;
  let order = Array.make n 0 in
  let count = ref 0 in
  let queue = Queue.create () in
  for id = 0 to n - 1 do
    if keep.(id) && indeg.(id) = 0 then Queue.add id queue
  done;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    order.(!count) <- id;
    incr count;
    List.iter
      (fun g ->
        indeg.(g) <- indeg.(g) - 1;
        if indeg.(g) = 0 then Queue.add g queue)
      fanout_lists.(id)
  done;
  Array.sub order 0 !count

let fanouts ?(live_only = true) t =
  let n = Network.num_nodes t in
  let keep = if live_only then live_set t else Array.make n true in
  let lists = Array.make n [] in
  for id = 0 to n - 1 do
    if keep.(id) then begin
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun f ->
          if not (Hashtbl.mem seen f) then begin
            Hashtbl.add seen f ();
            lists.(f) <- id :: lists.(f)
          end)
        (Network.fanins t id)
    end
  done;
  Array.map Array.of_list lists

let fanout_counts t ~live =
  let n = Network.num_nodes t in
  let counts = Array.make n 0 in
  for id = 0 to n - 1 do
    if live.(id) then begin
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun f ->
          if not (Hashtbl.mem seen f) then begin
            Hashtbl.add seen f ();
            counts.(f) <- counts.(f) + 1
          end)
        (Network.fanins t id)
    end
  done;
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) (Network.outputs t);
  counts

(* ---- Cleanup ---- *)

(* Follow Buf chains to the real driver. *)
let rec resolve t id =
  match Network.op t id with
  | Gate.Buf -> resolve t (Network.fanins t id).(0)
  | _ -> id

let const_of t id =
  match Network.op t id with Gate.Const b -> Some b | _ -> None

(* Simplified definition for an And/Or-family gate: drop absorbing/identity
   constants, deduplicate fanins, detect complementary pairs. [absorbing] is
   the fanin value that forces the output (false for And, true for Or);
   [invert] tells whether the gate complements (Nand/Nor). *)
let simplify_and_or t id fanins ~absorbing ~invert =
  let keep = ref [] in
  let forced = ref false in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      match const_of t f with
      | Some b -> if b = absorbing then forced := true
      | None -> if not (Hashtbl.mem seen f) then begin
          Hashtbl.add seen f ();
          keep := f :: !keep
        end)
    fanins;
  (* Complementary pair: x and Not x together force the absorbing value. *)
  let complement_present =
    List.exists
      (fun f ->
        match Network.op t f with
        | Gate.Not -> Hashtbl.mem seen (Network.fanins t f).(0)
        | Gate.Const _ | Gate.Input | Gate.Buf | Gate.And | Gate.Or
        | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux -> false)
      !keep
  in
  if !forced || complement_present then
    Network.replace ~check_cycle:false t id (Gate.Const (absorbing <> invert)) [||]
  else
    match !keep with
    | [] ->
      (* All fanins were the identity constant. *)
      Network.replace ~check_cycle:false t id (Gate.Const (absorbing = invert)) [||]
    | [ f ] ->
      Network.replace ~check_cycle:false t id (if invert then Gate.Not else Gate.Buf) [| f |]
    | fs ->
      let op = if invert then (if absorbing then Gate.Nor else Gate.Nand)
               else if absorbing then Gate.Or
               else Gate.And
      in
      Network.replace ~check_cycle:false t id op (Array.of_list (List.rev fs))

let simplify_xor t id fanins ~invert =
  (* Count parity of each non-constant fanin; constants fold into the flip. *)
  let flip = ref invert in
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun f ->
      match const_of t f with
      | Some b -> if b then flip := not !flip
      | None ->
        let c = try Hashtbl.find counts f with Not_found -> 0 in
        Hashtbl.replace counts f (c + 1))
    fanins;
  let keep =
    Hashtbl.fold (fun f c acc -> if c mod 2 = 1 then f :: acc else acc) counts []
  in
  match keep with
  | [] -> Network.replace ~check_cycle:false t id (Gate.Const !flip) [||]
  | [ f ] ->
    Network.replace ~check_cycle:false t id (if !flip then Gate.Not else Gate.Buf) [| f |]
  | fs ->
    let op = if !flip then Gate.Xnor else Gate.Xor in
    Network.replace ~check_cycle:false t id op (Array.of_list (List.sort compare fs))

let simplify_node t id =
  let fanins = Array.map (resolve t) (Network.fanins t id) in
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
  | Gate.And -> simplify_and_or t id fanins ~absorbing:false ~invert:false
  | Gate.Nand -> simplify_and_or t id fanins ~absorbing:false ~invert:true
  | Gate.Or -> simplify_and_or t id fanins ~absorbing:true ~invert:false
  | Gate.Nor -> simplify_and_or t id fanins ~absorbing:true ~invert:true
  | Gate.Xor -> simplify_xor t id fanins ~invert:false
  | Gate.Xnor -> simplify_xor t id fanins ~invert:true
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
  let order = topo_order ~live_only:true t in
  Array.iter (fun id -> simplify_node t id) order;
  let outputs =
    Array.map2
      (fun nm id -> (nm, resolve t id))
      (Network.output_names t) (Network.outputs t)
  in
  Network.set_outputs t outputs

let strash t =
  let table : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let key id =
    let fanins = Array.map (resolve t) (Network.fanins t id) in
    let op = Network.op t id in
    (match op with
     | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor | Gate.Xnor ->
       Array.sort compare fanins
     | Gate.Const _ | Gate.Input | Gate.Buf | Gate.Not | Gate.Mux -> ());
    Gate.to_string op ^ ":"
    ^ String.concat "," (Array.to_list (Array.map string_of_int fanins))
  in
  let order = topo_order ~live_only:true t in
  Array.iter
    (fun id ->
      if not (Network.is_input t id) then begin
        (* Rewire through any buffers created by earlier merges. *)
        let fanins = Array.map (resolve t) (Network.fanins t id) in
        Network.replace ~check_cycle:false t id (Network.op t id) fanins;
        let k = key id in
        match Hashtbl.find_opt table k with
        | Some rep when rep <> id ->
          Network.replace ~check_cycle:false t id Gate.Buf [| rep |]
        | Some _ -> ()
        | None -> Hashtbl.add table k id
      end)
    order;
  let outputs =
    Array.map2
      (fun nm id -> (nm, resolve t id))
      (Network.output_names t) (Network.outputs t)
  in
  Network.set_outputs t outputs

