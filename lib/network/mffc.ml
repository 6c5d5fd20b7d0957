(* [mark.(id) = stamp] flags a member of the most recent cone, and
   [- stamp] a member that [freed_area] is currently keeping alive. *)
type t = {
  net : Network.t;
  live : bool array;
  counts : int array;
  mark : int array;
  mutable stamp : int;
}

type cone = { root : int; nodes : int list; area : float; stamp : int }

let create net ~live ~fanout_counts =
  {
    net;
    live;
    counts = Array.copy fanout_counts;
    mark = Array.make (Array.length fanout_counts) 0;
    stamp = 0;
  }

let counts t = t.counts

(* Each distinct fanin counts once, as [Structure.fanout_counts] counts. *)
let rec deref (t : t) nodes x =
  let fis = Network.fanins t.net x in
  let nodes = ref nodes in
  for j = 0 to Array.length fis - 1 do
    if not (Structure.repeated fis j) then begin
      let f = fis.(j) in
      t.counts.(f) <- t.counts.(f) - 1;
      if t.counts.(f) = 0 && t.live.(f) && not (Network.is_input t.net f) then
        nodes := deref t (f :: !nodes) f
    end
  done;
  !nodes

let reref (t : t) x =
  let fis = Network.fanins t.net x in
  for j = 0 to Array.length fis - 1 do
    if not (Structure.repeated fis j) then t.counts.(fis.(j)) <- t.counts.(fis.(j)) + 1
  done

let cone (t : t) id =
  let nodes = deref t [ id ] id in
  (* Every member was dereferenced exactly once; reference it back. *)
  List.iter (reref t) nodes;
  t.stamp <- t.stamp + 1;
  List.iter (fun x -> t.mark.(x) <- t.stamp) nodes;
  { root = id; nodes; area = Cost.area_of_nodes t.net nodes; stamp = t.stamp }

let nodes c = c.nodes
let area c = c.area

(* MFFC members have no fanouts outside the cone, so only substitute nodes
   inside the cone can keep members alive. Without one, nothing is kept and
   the freed area is the whole cone's. *)
let freed_area (t : t) (c : cone) sns =
  if c.stamp <> t.stamp then invalid_arg "Mffc.freed_area: stale cone";
  let unkept id = id <> c.root && t.mark.(id) = c.stamp in
  if not (List.exists unkept sns) then c.area
  else begin
    let kept = ref [] in
    let rec keep id =
      if unkept id then begin
        t.mark.(id) <- -c.stamp;
        kept := id :: !kept;
        Array.iter keep (Network.fanins t.net id)
      end
    in
    List.iter keep sns;
    let area =
      Cost.area_of_nodes t.net
        (List.filter (fun id -> t.mark.(id) = c.stamp) c.nodes)
    in
    List.iter (fun id -> t.mark.(id) <- c.stamp) !kept;
    area
  end
