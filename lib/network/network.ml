type change =
  | Replaced of { id : int; old_op : Gate.op; old_fanins : int array }
  | Added of int
  | Outputs_changed of { old_ids : int array; old_names : string array }

type t = {
  mutable name : string;
  mutable ops : Gate.op array;
  mutable fanin_arrays : int array array;
  mutable used : int;
  mutable input_ids : int array;
  mutable input_name_list : string array;
  mutable output_ids : int array;
  mutable output_name_array : string array;
  (* Change tracker: at most one listener (the signature database). Never
     checkpointed — [copy] drops it, so copies stay marshal-safe. *)
  mutable tracker : (change -> unit) option;
}

exception Cycle of int

let create ?(name = "net") () =
  {
    name;
    ops = Array.make 64 (Gate.Const false);
    fanin_arrays = Array.make 64 [||];
    used = 0;
    input_ids = [||];
    input_name_list = [||];
    output_ids = [||];
    output_name_array = [||];
    tracker = None;
  }

let set_tracker t f =
  (match (t.tracker, f) with
   | Some _, Some _ -> invalid_arg "Network.set_tracker: tracker already attached"
   | _ -> ());
  t.tracker <- f


let notify t change =
  match t.tracker with None -> () | Some f -> f change

let name t = t.name
let set_name t s = t.name <- s

let grow t =
  let cap = Array.length t.ops in
  if t.used = cap then begin
    let ops = Array.make (2 * cap) (Gate.Const false) in
    let fis = Array.make (2 * cap) [||] in
    Array.blit t.ops 0 ops 0 cap;
    Array.blit t.fanin_arrays 0 fis 0 cap;
    t.ops <- ops;
    t.fanin_arrays <- fis
  end

let alloc t op fanins =
  grow t;
  let id = t.used in
  t.ops.(id) <- op;
  t.fanin_arrays.(id) <- fanins;
  t.used <- t.used + 1;
  notify t (Added id);
  id

let truncate t n =
  if n < 0 || n > t.used then invalid_arg "Network.truncate: bad watermark";
  (* Undo-journal support: forget the nodes allocated past [n]. The caller
     guarantees nothing at ids < n (nor the output table) references them. *)
  t.used <- n

let add_input t nm =
  let id = alloc t Gate.Input [||] in
  t.input_ids <- Array.append t.input_ids [| id |];
  t.input_name_list <- Array.append t.input_name_list [| nm |];
  id

let add_inputs t names =
  (* Bulk variant: one table append for the whole batch, so creating k
     inputs costs O(existing + k) instead of the O(k^2) that k single
     appends would — the difference between linear and quadratic parsing
     for input-heavy netlists. *)
  let ids = Array.map (fun _ -> alloc t Gate.Input [||]) names in
  t.input_ids <- Array.append t.input_ids ids;
  t.input_name_list <- Array.append t.input_name_list names;
  ids

let check_def t op fanins =
  if not (Gate.arity_ok op (Array.length fanins)) then
    invalid_arg "Network: arity violation";
  Array.iter
    (fun f ->
      if f < 0 || f >= t.used then invalid_arg "Network: unknown fanin id")
    fanins

let add_node t op fanins =
  if op = Gate.Input then invalid_arg "Network.add_node: use add_input";
  check_def t op fanins;
  alloc t op fanins

let set_outputs t pairs =
  Array.iter
    (fun (_, id) ->
      if id < 0 || id >= t.used then invalid_arg "Network: unknown output id")
    pairs;
  let old_ids = t.output_ids and old_names = t.output_name_array in
  t.output_ids <- Array.map snd pairs;
  t.output_name_array <- Array.map fst pairs;
  if old_ids <> t.output_ids || old_names <> t.output_name_array then
    notify t (Outputs_changed { old_ids; old_names })

let num_nodes t = t.used
let op t id = t.ops.(id)
let fanins t id = t.fanin_arrays.(id)
let inputs t = t.input_ids
let outputs t = t.output_ids
let output_names t = t.output_name_array
let input_names t = t.input_name_list
let is_input t id = t.ops.(id) = Gate.Input

(* Is [src] in the transitive fanin of [dst]? Iterative DFS over fanins. *)
let reaches t ~src ~dst =
  if src = dst then true
  else begin
    let seen = Array.make t.used false in
    let stack = ref [ dst ] in
    let found = ref false in
    while (not !found) && !stack <> [] do
      match !stack with
      | [] -> ()
      | id :: rest ->
        stack := rest;
        if not seen.(id) then begin
          seen.(id) <- true;
          let fis = t.fanin_arrays.(id) in
          for i = 0 to Array.length fis - 1 do
            let f = fis.(i) in
            if f = src then found := true else if not seen.(f) then stack := f :: !stack
          done
        end
    done;
    !found
  end

let replace ?(check_cycle = true) t id op fanins =
  if id < 0 || id >= t.used then invalid_arg "Network.replace: unknown id";
  if t.ops.(id) = Gate.Input then invalid_arg "Network.replace: primary input";
  if op = Gate.Input then invalid_arg "Network.replace: cannot become input";
  check_def t op fanins;
  if check_cycle then
    Array.iter
      (fun f -> if f = id || reaches t ~src:id ~dst:f then raise (Cycle id))
      fanins;
  (* Skip definition-preserving rewrites (common during [Cleanup.sweep]):
     they carry no information for change listeners, and the assignment
     would be a no-op anyway. *)
  if not (t.ops.(id) = op && t.fanin_arrays.(id) = fanins) then begin
    let old_op = t.ops.(id) and old_fanins = t.fanin_arrays.(id) in
    t.ops.(id) <- op;
    t.fanin_arrays.(id) <- fanins;
    notify t (Replaced { id; old_op; old_fanins })
  end

let unsafe_set_def t id op fanins =
  t.ops.(id) <- op;
  t.fanin_arrays.(id) <- fanins

let eval t input_values =
  if Array.length input_values <> Array.length t.input_ids then
    invalid_arg "Network.eval: wrong input count";
  let value = Array.make t.used false in
  let computed = Array.make t.used false in
  Array.iteri
    (fun i id ->
      value.(id) <- input_values.(i);
      computed.(id) <- true)
    t.input_ids;
  (* Evaluate on demand with an explicit stack (the network can be deep). *)
  let rec force id =
    if not computed.(id) then begin
      let fis = t.fanin_arrays.(id) in
      Array.iter force fis;
      let vs = Array.map (fun f -> value.(f)) fis in
      value.(id) <- Gate.eval t.ops.(id) vs;
      computed.(id) <- true
    end
  in
  Array.map
    (fun id ->
      force id;
      value.(id))
    t.output_ids

let copy t =
  {
    name = t.name;
    ops = Array.copy t.ops;
    fanin_arrays = Array.map Array.copy (Array.sub t.fanin_arrays 0 (Array.length t.fanin_arrays));
    used = t.used;
    input_ids = Array.copy t.input_ids;
    input_name_list = Array.copy t.input_name_list;
    output_ids = Array.copy t.output_ids;
    output_name_array = Array.copy t.output_name_array;
    (* Trackers are tied to one concrete network instance (and would make
       the copy unmarshalable); copies start untracked. *)
    tracker = None;
  }

(* ------------------------------------------------------------------ *)
(* Canonical digest *)

(* The digest keys a result cache shared across tenants and persisted
   across restarts, so it must be collision-resistant against an
   adversary: a non-cryptographic hash (CRC-32, FNV) admits deliberately
   constructed collisions with which one tenant could poison another's
   cache entry.  SHA-256 (lib/network/sha256.ml, dependency-free) over
   the canonical encoding closes that off. *)

let op_tag = function
  | Gate.Const false -> 0
  | Gate.Const true -> 1
  | Gate.Input -> 2
  | Gate.Buf -> 3
  | Gate.Not -> 4
  | Gate.And -> 5
  | Gate.Or -> 6
  | Gate.Nand -> 7
  | Gate.Nor -> 8
  | Gate.Xor -> 9
  | Gate.Xnor -> 10
  | Gate.Mux -> 11

let digest t =
  (* Canonical ids: pre-order DFS from the outputs in declaration order,
     fanins in order.  The numbering depends only on the reachable graph
     shape, never on allocation order, so isomorphic builds that allocated
     their nodes differently digest identically.  Dead nodes are skipped:
     the digest covers exactly the logic a reader of the BLIF would see. *)
  let n = max 1 t.used in
  let canon = Array.make n (-1) in
  let count = ref 0 in
  let visit root =
    if canon.(root) < 0 then begin
      let stack = ref [ root ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | id :: rest ->
          stack := rest;
          if canon.(id) < 0 then begin
            canon.(id) <- !count;
            incr count;
            let fis = t.fanin_arrays.(id) in
            (* Reverse push so fanin 0 is explored first. *)
            for k = Array.length fis - 1 downto 0 do
              let f = fis.(k) in
              if canon.(f) < 0 then stack := f :: !stack
            done
          end
      done
    end
  in
  Array.iter visit t.output_ids;
  let by_canon = Array.make (max 1 !count) 0 in
  for id = 0 to t.used - 1 do
    if canon.(id) >= 0 then by_canon.(canon.(id)) <- id
  done;
  (* Primary inputs hash as their declaration index: eval binds input
     values by position, so swapping two PI wires must change the digest
     even when the graph shapes are isomorphic. *)
  let input_pos = Array.make n (-1) in
  Array.iteri (fun i id -> input_pos.(id) <- i) t.input_ids;
  let ctx = Sha256.create () in
  let add x = Sha256.feed_int ctx x in
  add (Array.length t.input_ids);
  add !count;
  for c = 0 to !count - 1 do
    let id = by_canon.(c) in
    let op = t.ops.(id) in
    add (op_tag op);
    if op = Gate.Input then add input_pos.(id)
    else begin
      let fis = t.fanin_arrays.(id) in
      add (Array.length fis);
      Array.iter (fun f -> add canon.(f)) fis
    end
  done;
  add (Array.length t.output_ids);
  Array.iter (fun id -> add canon.(id)) t.output_ids;
  Sha256.hex ctx

type violation = { node : int option; reason : string }

exception Invariant_violation of violation

let () =
  Printexc.register_printer (function
    | Invariant_violation { node; reason } ->
      Some
        (match node with
         | Some id -> Printf.sprintf "Invariant_violation (node %d: %s)" id reason
         | None -> Printf.sprintf "Invariant_violation (%s)" reason)
    | _ -> None)

let violated ?node fmt =
  Printf.ksprintf (fun reason -> raise (Invariant_violation { node; reason })) fmt

let validate t =
  (* Name-table consistency: ids and names must pair up, and the PI tables
     must agree with the node operators in both directions. *)
  if Array.length t.input_ids <> Array.length t.input_name_list then
    violated "input table: %d ids but %d names" (Array.length t.input_ids)
      (Array.length t.input_name_list);
  if Array.length t.output_ids <> Array.length t.output_name_array then
    violated "output table: %d ids but %d names" (Array.length t.output_ids)
      (Array.length t.output_name_array);
  let is_registered_input = Array.make (max 1 t.used) false in
  Array.iter
    (fun id ->
      if id < 0 || id >= t.used then violated "input id %d out of range" id;
      if is_registered_input.(id) then
        violated ~node:id "node registered as primary input twice";
      is_registered_input.(id) <- true;
      if t.ops.(id) <> Gate.Input then
        violated ~node:id "input-table entry is not an Input node")
    t.input_ids;
  (* Local structure: arity, fanin ranges, no self-loops, and every Input
     operator accounted for in the input table. *)
  for id = 0 to t.used - 1 do
    let fis = t.fanin_arrays.(id) in
    if not (Gate.arity_ok t.ops.(id) (Array.length fis)) then
      violated ~node:id "%s with %d fanins (arity violation)"
        (Gate.to_string t.ops.(id))
        (Array.length fis);
    Array.iter
      (fun f ->
        if f < 0 || f >= t.used then
          violated ~node:id "fanin %d out of range [0, %d)" f t.used;
        if f = id then violated ~node:id "self-loop")
      fis;
    if t.ops.(id) = Gate.Input && not is_registered_input.(id) then
      violated ~node:id "Input node missing from the input table"
  done;
  (* Acyclicity via iterative DFS coloring (the explicit stack keeps
     adversarial deep inputs — e.g. fuzzed BLIF — from overflowing). *)
  let color = Array.make (max 1 t.used) 0 in
  let visit root =
    if color.(root) = 0 then begin
      let stack = ref [ (root, 0) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (id, next_fanin) :: rest ->
          if next_fanin = 0 then color.(id) <- 1;
          let fis = t.fanin_arrays.(id) in
          if next_fanin >= Array.length fis then begin
            color.(id) <- 2;
            stack := rest
          end
          else begin
            stack := (id, next_fanin + 1) :: rest;
            let f = fis.(next_fanin) in
            if color.(f) = 1 then violated ~node:f "combinational cycle";
            if color.(f) = 0 then stack := (f, 0) :: !stack
          end
      done
    end
  in
  for id = 0 to t.used - 1 do
    visit id
  done;
  (* Primary outputs must have live drivers. *)
  Array.iteri
    (fun i id ->
      if id < 0 || id >= t.used then
        violated "output %s: driver id %d out of range"
          (if i < Array.length t.output_name_array then t.output_name_array.(i)
           else string_of_int i)
          id)
    t.output_ids
