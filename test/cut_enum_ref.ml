(* The list-based cut enumeration that Cut_enum's slot buffers replaced,
   kept as their oracle: merge every cut pair into fresh arrays, sort and
   deduplicate with the polymorphic [compare], drop every cut some other
   cut subsumes, then keep the [per_node] smallest. The update logic is
   Cut_enum's own, so a property can compare cut lists, stamps and
   recompute counts update by update. *)

open Accals_network

let merge_leaves ~k a b =
  (* Union of two sorted arrays, or None if the union exceeds k. *)
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min (la + lb) (k + 1)) 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then Some (Array.sub out 0 n)
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else if i = la || b.(j) < a.(i) then begin
      out.(n) <- b.(j);
      go i (j + 1) (n + 1)
    end
    else begin
      out.(n) <- a.(i);
      go (i + 1) (j + 1) (n + 1)
    end
  in
  if la > k || lb > k then None else go 0 0 0

let subsumes a b =
  (* a subsumes b when a ⊆ b (a is the better cut). Arrays sorted. *)
  let la = Array.length a and lb = Array.length b in
  la <= lb
  && begin
    let rec go i j =
      if i = la then true
      else if j = lb then false
      else if a.(i) = b.(j) then go (i + 1) (j + 1)
      else if a.(i) > b.(j) then go i (j + 1)
      else false
    in
    go 0 0
  end

type store = {
  mutable internal : int array list array;
  mutable changed_at : int array;
}

let store () = { internal = [||]; changed_at = [||] }

let grow s n =
  let cap = Array.length s.internal in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let internal = Array.make cap' [] in
    Array.blit s.internal 0 internal 0 cap;
    let changed_at = Array.make cap' (-1) in
    Array.blit s.changed_at 0 changed_at 0 cap;
    s.internal <- internal;
    s.changed_at <- changed_at
  end

let node_cuts s net ~k ~per_node id =
  let merged =
    if Network.is_input net id then []
    else begin
      let fis = Network.fanins net id in
      if Array.length fis = 0 then []
      else begin
        let acc = ref s.internal.(fis.(0)) in
        for i = 1 to Array.length fis - 1 do
          let next = ref [] in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  match merge_leaves ~k a b with
                  | Some u -> next := u :: !next
                  | None -> ())
                s.internal.(fis.(i)))
            !acc;
          acc := !next
        done;
        !acc
      end
    end
  in
  let unique = List.sort_uniq compare merged in
  let filtered =
    List.filter
      (fun c -> not (List.exists (fun c' -> c' <> c && subsumes c' c) unique))
      unique
  in
  let sorted =
    List.sort (fun a b -> compare (Array.length a) (Array.length b)) filtered
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take per_node sorted

let cuts s id = match s.internal.(id) with [] -> [] | _trivial :: kept -> kept
let changed_at s id = s.changed_at.(id)

let update s net ~order ~k ~per_node ~dirty ~stamp =
  grow s (Network.num_nodes net);
  let recomputed = ref 0 in
  Array.iter
    (fun id ->
      let first = s.changed_at.(id) < 0 in
      if
        first || dirty id
        || Array.exists (fun f -> s.changed_at.(f) = stamp) (Network.fanins net id)
      then begin
        incr recomputed;
        let kept = node_cuts s net ~k ~per_node id in
        if first || kept <> cuts s id then begin
          s.internal.(id) <- [| id |] :: kept;
          s.changed_at.(id) <- stamp
        end
      end)
    order;
  !recomputed

let enumerate net ~order ~k ~per_node =
  let s = store () in
  ignore (update s net ~order ~k ~per_node ~dirty:(fun _ -> true) ~stamp:0);
  Array.init (Network.num_nodes net) (cuts s)
