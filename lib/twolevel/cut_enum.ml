open Accals_network

(* Candidate cuts of one node, [count] slots of [width] leaves each: slot
   [i] holds its [size.(i)] sorted leaves at [leaves.(i * width)]. *)
type cands = {
  mutable width : int;
  mutable leaves : int array;
  mutable size : int array;
  mutable count : int;
}

let cands () = { width = 0; leaves = [||]; size = [||]; count = 0 }

let clear c ~width =
  if c.width <> width then begin
    c.width <- width;
    c.leaves <- Array.make (Array.length c.size * width) 0
  end;
  c.count <- 0

(* Room for one more slot. *)
let reserve c =
  if c.count = Array.length c.size then begin
    let cap = max 16 (2 * c.count) in
    let size = Array.make cap 0 and leaves = Array.make (cap * c.width) 0 in
    Array.blit c.size 0 size 0 c.count;
    Array.blit c.leaves 0 leaves 0 (c.count * c.width);
    c.size <- size;
    c.leaves <- leaves
  end

let push c cut =
  reserve c;
  Array.blit cut 0 c.leaves (c.count * c.width) (Array.length cut);
  c.size.(c.count) <- Array.length cut;
  c.count <- c.count + 1

(* Append the union of [src]'s slot [i] and the sorted leaves [b] unless it
   has more than [k] leaves. *)
let push_union c ~k src i b =
  reserve c;
  let la = src.size.(i) and lb = Array.length b in
  let a = src.leaves and ao = i * src.width in
  let d = c.leaves and o = c.count * c.width in
  let ia = ref 0 and ib = ref 0 and n = ref 0 in
  while !n <= k && (!ia < la || !ib < lb) do
    let x =
      if !ib = lb || (!ia < la && a.(ao + !ia) < b.(!ib)) then begin
        incr ia;
        a.(ao + !ia - 1)
      end
      else begin
        if !ia < la && a.(ao + !ia) = b.(!ib) then incr ia;
        incr ib;
        b.(!ib - 1)
      end
    in
    if !n < k then d.(o + !n) <- x;
    incr n
  done;
  if !n <= k then begin
    c.size.(c.count) <- !n;
    c.count <- c.count + 1
  end

let rec push_all c = function
  | [] -> ()
  | cut :: cuts ->
    push c cut;
    push_all c cuts

(* [push_union] of slot [i] with each of [cuts]. *)
let rec push_unions c ~k src i = function
  | [] -> ()
  | cut :: cuts ->
    push_union c ~k src i cut;
    push_unions c ~k src i cuts

(* The order [compare] gives [int array]: size first, then leaves
   lexicographically. *)
let compare_slots c i j =
  let si = c.size.(i) and sj = c.size.(j) in
  if si <> sj then si - sj
  else begin
    let l = c.leaves and oi = i * c.width and oj = j * c.width in
    let r = ref 0 and p = ref 0 in
    while !r = 0 && !p < si do
      r := compare (l.(oi + !p) : int) l.(oj + !p);
      incr p
    done;
    !r
  end

(* Slot [i] subsumes slot [j] when its leaves are a subset of [j]'s. *)
let subsumes_slot c i j =
  let la = c.size.(i) and lb = c.size.(j) in
  la <= lb
  && begin
    let l = c.leaves and oa = i * c.width and ob = j * c.width in
    let ia = ref 0 and ib = ref 0 in
    while !ia < la && !ib < lb && l.(oa + !ia) >= l.(ob + !ib) do
      if l.(oa + !ia) = l.(ob + !ib) then incr ia;
      incr ib
    done;
    !ia = la
  end

(* Internal sets include the trivial cut so fanout merging works; the
   reported lists drop it. [changed_at.(id)] is the stamp of the update
   that last changed node [id]'s reported list, -1 before its first.
   [cur], [next], [by_rank], [spare] and [kept] are [node_cuts]'s
   scratch. *)
type store = {
  mutable internal : int array list array;
  mutable changed_at : int array;
  cur : cands;
  next : cands;
  mutable by_rank : int array;
  mutable spare : int array;
  mutable kept : int array;
}

let store () =
  {
    internal = [||];
    changed_at = [||];
    cur = cands ();
    next = cands ();
    by_rank = [||];
    spare = [||];
    kept = [||];
  }

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

(* One pass of the merge sort: the sorted runs [src.(lo .. mid-1)] and
   [src.(mid .. hi-1)] merged into [dst.(lo .. hi-1)]. *)
let merge_runs c src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for o = lo to hi - 1 do
    if !j >= hi || (!i < mid && compare_slots c src.(!i) src.(!j) <= 0) then begin
      dst.(o) <- src.(!i);
      incr i
    end
    else begin
      dst.(o) <- src.(!j);
      incr j
    end
  done

(* [s.by_rank.(0 .. c.count-1)] lists [c]'s slots in [compare_slots]
   order: a bottom-up merge sort through [s.spare]. *)
let rank s c =
  let n = c.count in
  if Array.length s.by_rank < n then begin
    s.by_rank <- Array.make (Array.length c.size) 0;
    s.spare <- Array.make (Array.length c.size) 0
  end;
  for i = 0 to n - 1 do
    s.by_rank.(i) <- i
  done;
  let w = ref 1 in
  while !w < n do
    let lo = ref 0 in
    while !lo < n do
      merge_runs c s.by_rank s.spare !lo (min n (!lo + !w)) (min n (!lo + (2 * !w)));
      lo := !lo + (2 * !w)
    done;
    let sorted = s.spare in
    s.spare <- s.by_rank;
    s.by_rank <- sorted;
    w := 2 * !w
  done

(* Ranks [c]'s slots and lists in [s.kept] the first [limit] distinct
   slots, in rank order, that no other slot subsumes; returns how many.
   Testing each slot only against those kept so far is enough: a slot
   that some other slot subsumes is subsumed by a smaller unsubsumed one,
   which ranks before it and so was kept first. *)
let minimal s c ~limit =
  rank s c;
  if Array.length s.kept < c.count then s.kept <- Array.make (Array.length c.size) 0;
  let kept = s.kept and n = ref 0 and prev = ref (-1) and r = ref 0 in
  while !n < limit && !r < c.count do
    let i = s.by_rank.(!r) in
    if !prev < 0 || compare_slots c !prev i <> 0 then begin
      prev := i;
      let subsumed = ref false and j = ref 0 in
      while (not !subsumed) && !j < !n do
        subsumed := subsumes_slot c kept.(!j) i;
        incr j
      done;
      if not !subsumed then begin
        kept.(!n) <- i;
        incr n
      end
    end;
    incr r
  done;
  !n

(* A node's kept cuts from its fanins' internal sets: every union of one
   cut per fanin with at most [k] leaves, deduplicated, subsumed cuts
   dropped, the [per_node] first in [compare] order kept. Unions are
   formed one fanin at a time, and after each step only the minimal
   partial unions go on: a union through a subsumed partial union
   contains the same union through the partial union subsuming it, so
   the minimal final unions, and hence the list, do not change. *)
let node_cuts s net ~k ~per_node id =
  let fis = Network.fanins net id in
  if Network.is_input net id || Array.length fis = 0 || per_node <= 0 then []
  else begin
    let width = max k 1 and last = Array.length fis - 1 in
    let cur = ref s.cur and next = ref s.next in
    clear !cur ~width;
    push_all !cur s.internal.(fis.(0));
    let n_kept = ref (minimal s !cur ~limit:(if last = 0 then per_node else max_int)) in
    for f = 1 to last do
      let a = !cur and c = !next in
      clear c ~width;
      for j = 0 to !n_kept - 1 do
        push_unions c ~k a s.kept.(j) s.internal.(fis.(f))
      done;
      cur := c;
      next := a;
      n_kept := minimal s c ~limit:(if f = last then per_node else max_int)
    done;
    let c = !cur and cuts = ref [] in
    for j = !n_kept - 1 downto 0 do
      let i = s.kept.(j) in
      cuts := Array.sub c.leaves (i * width) c.size.(i) :: !cuts
    done;
    !cuts
  end

let same_leaves a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

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
        if first || not (List.equal same_leaves kept (cuts s id)) then begin
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

let bytes s =
  let word = Sys.word_size / 8 in
  Array.fold_left
    (fun acc cuts ->
      List.fold_left (fun acc c -> acc + ((Array.length c + 4) * word)) acc cuts)
    ((2 * Array.length s.internal + 2) * word)
    s.internal

let is_cut net ~root ~leaves =
  let leaf = Hashtbl.create 8 in
  Array.iter (fun id -> Hashtbl.replace leaf id ()) leaves;
  let seen = Hashtbl.create 32 in
  let ok = ref true in
  let rec walk id =
    if (not (Hashtbl.mem leaf id)) && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Network.op net id with
      | Gate.Input -> ok := false
      | Gate.Const _ -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor | Gate.Mux ->
        Array.iter walk (Network.fanins net id)
    end
  in
  walk root;
  !ok
