module Bitvec = Accals_bitvec.Bitvec

let live_set t =
  let n = Network.num_nodes t in
  let live = Array.make n false in
  let stack = ref [] in
  Array.iter
    (fun id ->
      if not live.(id) then begin
        live.(id) <- true;
        stack := id :: !stack
      end)
    (Network.outputs t);
  let rec walk () =
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      Array.iter
        (fun f ->
          if not live.(f) then begin
            live.(f) <- true;
            stack := f :: !stack
          end)
        (Network.fanins t id);
      walk ()
  in
  walk ();
  live

let rec occurs_before (fis : int array) j i =
  i < j && (fis.(i) = fis.(j) || occurs_before fis j (i + 1))

(* Fanin lists are short, so scanning them deduplicates without a table. *)
let repeated fis j = occurs_before fis j 0

(* One Kahn step: lower the in-degree of each fanout in [gs] and queue at
   [order.(tail)] those that reach zero; returns the new tail. *)
let rec release indeg order tail = function
  | [] -> tail
  | g :: gs ->
    indeg.(g) <- indeg.(g) - 1;
    if indeg.(g) = 0 then begin
      order.(tail) <- g;
      release indeg order (tail + 1) gs
    end
    else release indeg order tail gs

(* Kahn's algorithm over the relevant node set. [order] doubles as the
   FIFO queue: nodes are popped from [head] in the order they were pushed. *)
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
      let fis = Network.fanins t id in
      for j = 0 to Array.length fis - 1 do
        let f = fis.(j) in
        if keep.(f) && not (repeated fis j) then begin
          indeg.(id) <- indeg.(id) + 1;
          fanout_lists.(f) <- id :: fanout_lists.(f)
        end
      done
    end
  done;
  let order = Array.make n 0 in
  let tail = ref 0 in
  for id = 0 to n - 1 do
    if keep.(id) && indeg.(id) = 0 then begin
      order.(!tail) <- id;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    tail := release indeg order !tail fanout_lists.(order.(!head));
    incr head
  done;
  Array.sub order 0 !tail

(* Counted first, then filled from the back, so each list holds its
   fanouts in descending id order. *)
let fanouts ?(live_only = true) t =
  let n = Network.num_nodes t in
  let keep = if live_only then live_set t else Array.make n true in
  let counts = Array.make n 0 in
  for id = 0 to n - 1 do
    if keep.(id) then begin
      let fis = Network.fanins t id in
      for j = 0 to Array.length fis - 1 do
        if not (repeated fis j) then counts.(fis.(j)) <- counts.(fis.(j)) + 1
      done
    end
  done;
  let lists = Array.map (fun c -> if c = 0 then [||] else Array.make c 0) counts in
  for id = 0 to n - 1 do
    if keep.(id) then begin
      let fis = Network.fanins t id in
      for j = 0 to Array.length fis - 1 do
        let f = fis.(j) in
        if not (repeated fis j) then begin
          counts.(f) <- counts.(f) - 1;
          lists.(f).(counts.(f)) <- id
        end
      done
    end
  done;
  lists

let levels t =
  let n = Network.num_nodes t in
  let lvl = Array.make n 0 in
  let order = topo_order t in
  Array.iter
    (fun id ->
      let fis = Network.fanins t id in
      let m = Array.fold_left (fun acc f -> max acc lvl.(f)) (-1) fis in
      lvl.(id) <- (if Array.length fis = 0 then 0 else m + 1))
    order;
  lvl

let tfo_set t ~fanouts id =
  let n = Network.num_nodes t in
  let bv = Bitvec.create n in
  let stack = ref [ id ] in
  Bitvec.set bv id true;
  let rec walk () =
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      Array.iter
        (fun g ->
          if not (Bitvec.get bv g) then begin
            Bitvec.set bv g true;
            stack := g :: !stack
          end)
        fanouts.(x);
      walk ()
  in
  walk ();
  bv

(* [memo.(x)] is [2 * stamp + answer] when [x]'s answer for the current
   target is known. *)
type tfo_probe = {
  net : Network.t;
  topo_pos : int array;
  memo : int array;
  mutable target : int;
  mutable stamp : int;
}

let tfo_probe net ~topo_pos =
  { net; topo_pos; memo = Array.make (Array.length topo_pos) 0; target = -1; stamp = 0 }

(* [v] is in the TFO of [target] iff walking back over fanins from [v]
   reaches [target]. Only nodes after [target] in topological order can
   lie on such a walk. *)
let rec reaches p ~target ~limit x =
  x = target
  || p.topo_pos.(x) > limit
     &&
     let m = p.memo.(x) in
     if m lsr 1 = p.stamp then m land 1 = 1
     else begin
       let r = any_reaches p ~target ~limit (Network.fanins p.net x) 0 in
       p.memo.(x) <- (p.stamp lsl 1) lor Bool.to_int r;
       r
     end

and any_reaches p ~target ~limit fis i =
  i < Array.length fis
  && (reaches p ~target ~limit fis.(i) || any_reaches p ~target ~limit fis (i + 1))

let in_tfo p ~target v =
  if target <> p.target then begin
    p.target <- target;
    p.stamp <- p.stamp + 1
  end;
  reaches p ~target ~limit:p.topo_pos.(target) v

(* The cone is marked by topological position, so reading the marks back
   in ascending order through [order] lists it in topological order. *)
let tfo_list ~fanouts ~order ~topo_pos id =
  let marks = Bitvec.create (Array.length order) in
  let own = topo_pos.(id) in
  Bitvec.set marks own true;
  let rec walk = function
    | [] -> ()
    | x :: rest ->
      let stack = ref rest in
      let fo = fanouts.(x) in
      for j = 0 to Array.length fo - 1 do
        let p = topo_pos.(fo.(j)) in
        if not (Bitvec.get marks p) then begin
          Bitvec.set marks p true;
          stack := fo.(j) :: !stack
        end
      done;
      walk !stack
  in
  walk [ id ];
  let cone = Array.make (Bitvec.popcount marks - 1) 0 in
  let next = ref 0 in
  Bitvec.iter_set marks (fun p ->
      if p <> own then begin
        cone.(!next) <- order.(p);
        incr next
      end);
  cone

let shortest_path_bounded t ~fanouts ~src ~dst ~limit =
  ignore t;
  if src = dst then Some 0
  else begin
    let dist = Hashtbl.create 64 in
    Hashtbl.add dist src 0;
    let queue = Queue.create () in
    Queue.add src queue;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         let x = Queue.pop queue in
         let d = Hashtbl.find dist x in
         if d < limit then
           Array.iter
             (fun g ->
               if not (Hashtbl.mem dist g) then begin
                 if g = dst then begin
                   result := Some (d + 1);
                   raise Exit
                 end;
                 Hashtbl.add dist g (d + 1);
                 Queue.add g queue
               end)
             fanouts.(x)
       done
     with Exit -> ());
    !result
  end

let fanout_counts t ~live =
  let n = Network.num_nodes t in
  let counts = Array.make n 0 in
  for id = 0 to n - 1 do
    if live.(id) then begin
      let fis = Network.fanins t id in
      for j = 0 to Array.length fis - 1 do
        if not (repeated fis j) then counts.(fis.(j)) <- counts.(fis.(j)) + 1
      done
    end
  done;
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) (Network.outputs t);
  counts
