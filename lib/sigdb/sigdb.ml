open Accals_network
module Bitvec = Accals_bitvec.Bitvec

(* A versioned per-node signature database.

   The database owns the node signatures of one concrete network and keeps
   them valid across in-place mutation: it listens to [Network.change]
   events, maintains the full fanout lists incrementally, and after a batch
   of definition changes re-evaluates only the transitive fanout cone of
   the changed nodes, stopping early wherever a recomputed signature equals
   the stored one (event-driven resimulation). Candidate LAC sets are
   evaluated under an undo journal: the set is applied to the live network,
   the affected outputs are recomputed into a throwaway overlay, and the
   journal restores the network (and the incremental structures) exactly.

   Exactness contract: for live nodes, [sigs db] is always bit-identical to
   a from-scratch [Sim.run] over a topological order of the current
   network. The per-round views (live set, topological order, live-filtered
   fanouts, fanout counts) are *recomputed* by [refresh] with the same
   [Structure] routines the rebuild path uses, so candidate enumeration
   order — and therefore every downstream tie-break — cannot diverge from
   the rebuild-everything path. Only the expensive bitvector work is
   incremental. *)

type counters = {
  mutable resim_nodes : int;
  mutable resim_converged : int;
  mutable buffers_recycled : int;
  mutable journal_undos : int;
  mutable journal_entries_undone : int;
}

type delta = {
  sig_changed : int list;
  struct_dirty : bool array;
  redefined : int list;
  live_changed : int list;
}

type journal_entry =
  | J_replace of { id : int; old_op : Gate.op; old_fanins : int array }
  | J_outputs of { old_ids : int array; old_names : string array }

type mode = Pending | Journal | Silent

type t = {
  net : Network.t;
  patterns : Sim.patterns;
  mutable sigs : Bitvec.t array;  (* capacity-sized; dummy when dead *)
  mutable live : bool array;  (* frozen at last refresh *)
  mutable order : int array;
  mutable topo_pos : int array;
  mutable fanouts_all : int list array;
      (* full consumer lists (dead consumers included), descending consumer
         id, one entry per distinct (consumer, fanin) pair — the exact
         superset of [Structure.fanouts ~live_only:true] *)
  mutable fanouts : int array array;  (* live-filtered view *)
  mutable fanout_counts : int array;
  mutable version : int;
  mutable free : Bitvec.t list;  (* recycled signature buffers *)
  counters : counters;
  (* committed-change accumulation (between refreshes) *)
  mutable pending_roots : int list;
  mutable pending_touched : int list;
  mutable redefined : int list;  (* committed definition changes and additions *)
  mutable sig_changed : int list;
  (* undo journal *)
  mutable mode : mode;
  mutable j_entries : journal_entry list;  (* newest first *)
  mutable j_mark : int;
  mutable j_roots : int list;
  mutable j_touched : int list;
  (* overlay scratch for journal evaluation *)
  mutable overlay : Bitvec.t array;
  mutable have : bool array;
}

let dummy = Bitvec.create 0

let network db = db.net
let patterns db = db.patterns
let version db = db.version
let counters db = db.counters

let live_view db = db.live
let order_view db = db.order
let topo_pos_view db = db.topo_pos
let fanouts_view db = db.fanouts
let fanout_counts_view db = db.fanout_counts
let sigs_view db = db.sigs

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

let take_buf db =
  match db.free with
  | b :: rest ->
    db.free <- rest;
    db.counters.buffers_recycled <- db.counters.buffers_recycled + 1;
    b
  | [] -> Bitvec.create db.patterns.Sim.count

let release_buf db b = if Bitvec.length b > 0 then db.free <- b :: db.free

let buf_bytes b =
  let bpw = Bitvec.bits_per_word in
  (Bitvec.length b + bpw - 1) / bpw * (bpw / 8)

let pool_size db = List.length db.free
let pool_bytes db = List.fold_left (fun acc b -> acc + buf_bytes b) 0 db.free

(* Memory-pressure relief: drop the recycled buffers. Purely a perf/space
   trade — the next resimulation allocates fresh ones, and nothing about
   signatures or enumeration order changes. *)
let trim_pool db =
  let n = pool_size db in
  db.free <- [];
  n

(* ------------------------------------------------------------------ *)
(* Incremental full-fanout maintenance.

   Lists are kept in descending consumer-id order with one entry per
   distinct pair — exactly the canonical form [Structure.fanouts] produces
   (it iterates consumers in ascending id order and prepends), so the
   live-filtered view below is equal element-for-element to a rebuild. *)

let remove_fanout db f c =
  db.fanouts_all.(f) <- List.filter (fun x -> x <> c) db.fanouts_all.(f)

let insert_fanout db f c =
  let rec ins = function
    | [] -> [ c ]
    | x :: _ as l when x < c -> c :: l
    | x :: _ as l when x = c -> l
    | x :: rest -> x :: ins rest
  in
  db.fanouts_all.(f) <- ins db.fanouts_all.(f)

let ensure_capacity db =
  let n = Network.num_nodes db.net in
  let cap = Array.length db.sigs in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let sigs = Array.make cap' dummy in
    Array.blit db.sigs 0 sigs 0 cap;
    db.sigs <- sigs;
    let fos = Array.make cap' [] in
    Array.blit db.fanouts_all 0 fos 0 cap;
    db.fanouts_all <- fos;
    let overlay = Array.make cap' dummy in
    Array.blit db.overlay 0 overlay 0 (Array.length db.have);
    db.overlay <- overlay;
    let have = Array.make cap' false in
    Array.blit db.have 0 have 0 (Array.length db.have);
    db.have <- have
  end

(* ------------------------------------------------------------------ *)
(* Change tracking *)

let on_change db change =
  (match change with
   | Network.Replaced { id; old_fanins; _ } ->
     Array.iter (fun f -> remove_fanout db f id) old_fanins;
     let nf = Network.fanins db.net id in
     Array.iter (fun f -> insert_fanout db f id) nf;
     (match db.mode with
      | Silent -> ()
      | Journal ->
        (match change with
         | Network.Replaced { id; old_op; old_fanins } ->
           db.j_entries <- J_replace { id; old_op; old_fanins } :: db.j_entries
         | _ -> ());
        db.j_roots <- id :: db.j_roots;
        db.j_touched <-
          id :: List.rev_append (Array.to_list old_fanins)
                  (List.rev_append (Array.to_list nf) db.j_touched)
      | Pending ->
        db.pending_roots <- id :: db.pending_roots;
        db.redefined <- id :: db.redefined;
        db.pending_touched <-
          id :: List.rev_append (Array.to_list old_fanins)
                  (List.rev_append (Array.to_list nf) db.pending_touched))
   | Network.Added id ->
     ensure_capacity db;
     let nf = Network.fanins db.net id in
     Array.iter (fun f -> insert_fanout db f id) nf;
     (match db.mode with
      | Silent -> ()
      | Journal ->
        db.j_roots <- id :: db.j_roots;
        db.j_touched <- id :: List.rev_append (Array.to_list nf) db.j_touched
      | Pending ->
        db.pending_roots <- id :: db.pending_roots;
        db.redefined <- id :: db.redefined;
        db.pending_touched <- id :: List.rev_append (Array.to_list nf) db.pending_touched)
   | Network.Outputs_changed { old_ids; old_names } ->
     (* Output rewiring changes no signature, so no resimulation root; but
        which nodes drive outputs feeds criticality, so both the old and
        the new driver sets count as structurally touched. *)
     let touched acc =
       Array.to_list old_ids
       @ Array.to_list (Network.outputs db.net)
       @ acc
     in
     (match db.mode with
      | Silent -> ()
      | Journal ->
        db.j_entries <- J_outputs { old_ids; old_names } :: db.j_entries;
        db.j_touched <- touched db.j_touched
      | Pending -> db.pending_touched <- touched db.pending_touched))

(* ------------------------------------------------------------------ *)
(* Cone collection: transitive fanout of the roots over the full fanout
   lists, pruned at nodes that are neither live (as of the last refresh)
   nor newly added, then topologically ordered by depth-first search over
   the fanin edges restricted to the cone. Any valid topological order
   yields bit-identical signatures; this one is also deterministic because
   the traversal only follows deterministic root and adjacency orders. *)

let eligible db id = id >= Array.length db.live || db.live.(id)

let collect_order db roots =
  let in_cone = Hashtbl.create 64 in
  let members = ref [] in
  let stack = ref [] in
  List.iter
    (fun r ->
      if eligible db r && (not (Network.is_input db.net r))
         && not (Hashtbl.mem in_cone r)
      then begin
        Hashtbl.add in_cone r ();
        members := r :: !members;
        stack := r :: !stack
      end)
    roots;
  let rec walk () =
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      List.iter
        (fun c ->
          if eligible db c && not (Hashtbl.mem in_cone c) then begin
            Hashtbl.add in_cone c ();
            members := c :: !members;
            stack := c :: !stack
          end)
        db.fanouts_all.(x);
      walk ()
  in
  walk ();
  (* DFS post-order over in-cone fanin edges: fanins before consumers. *)
  let state = Hashtbl.create 64 in
  let acc = ref [] in
  let visit root =
    if not (Hashtbl.mem state root) then begin
      Hashtbl.add state root 1;
      let stack = ref [ (root, 0) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (id, next) :: rest ->
          let fis = Network.fanins db.net id in
          if next >= Array.length fis then begin
            acc := id :: !acc;
            stack := rest
          end
          else begin
            stack := (id, next + 1) :: rest;
            let f = fis.(next) in
            if Hashtbl.mem in_cone f && not (Hashtbl.mem state f) then begin
              Hashtbl.add state f 1;
              stack := (f, 0) :: !stack
            end
          end
      done
    end
  in
  List.iter visit (List.rev !members);
  (Array.of_list (List.rev !acc), in_cone)

(* ------------------------------------------------------------------ *)
(* Journal *)

let begin_journal db =
  if db.mode = Journal then invalid_arg "Sigdb.begin_journal: journal already active";
  db.mode <- Journal;
  db.j_mark <- Network.num_nodes db.net;
  db.j_entries <- [];
  db.j_roots <- [];
  db.j_touched <- []

let end_journal db =
  db.j_entries <- [];
  db.j_roots <- [];
  db.j_touched <- [];
  db.mode <- Pending

let undo_journal db =
  if db.mode <> Journal then invalid_arg "Sigdb.undo_journal: no active journal";
  db.counters.journal_undos <- db.counters.journal_undos + 1;
  db.counters.journal_entries_undone <-
    db.counters.journal_entries_undone + List.length db.j_entries;
  db.mode <- Silent;
  List.iter
    (function
      | J_replace { id; old_op; old_fanins } ->
        Network.replace ~check_cycle:false db.net id old_op old_fanins
      | J_outputs { old_ids; old_names } ->
        Network.set_outputs db.net
          (Array.map2 (fun nm id -> (nm, id)) old_names old_ids))
    db.j_entries;
  for id = db.j_mark to Network.num_nodes db.net - 1 do
    Array.iter (fun f -> remove_fanout db f id) (Network.fanins db.net id)
  done;
  Network.truncate db.net db.j_mark;
  end_journal db

let commit_journal db =
  if db.mode <> Journal then invalid_arg "Sigdb.commit_journal: no active journal";
  db.pending_roots <- List.rev_append db.j_roots db.pending_roots;
  db.redefined <- List.rev_append db.j_roots db.redefined;
  db.pending_touched <- List.rev_append db.j_touched db.pending_touched;
  end_journal db

(* Overlay evaluation of the journaled changes: recompute the affected part
   of the cone into recycled buffers, hand the resulting primary-output
   signatures to [k], then return every buffer to the pool. The stored
   signatures are never touched. *)
let with_journal_outputs db k =
  if db.mode <> Journal then
    invalid_arg "Sigdb.with_journal_outputs: no active journal";
  let order, in_cone = collect_order db db.j_roots in
  let roots = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace roots r ()) db.j_roots;
  ignore in_cone;
  let touched = ref [] in
  let lookup id = if db.have.(id) then db.overlay.(id) else db.sigs.(id) in
  Array.iter
    (fun id ->
      let fis = Network.fanins db.net id in
      let dirty =
        Hashtbl.mem roots id || Array.exists (fun f -> db.have.(f)) fis
      in
      if dirty then begin
        let dst = take_buf db in
        db.counters.resim_nodes <- db.counters.resim_nodes + 1;
        Sim.eval_node_into db.net ~lookup id ~dst;
        let old = db.sigs.(id) in
        if Bitvec.length old > 0 && Bitvec.equal dst old then begin
          release_buf db dst;
          db.counters.resim_converged <- db.counters.resim_converged + 1
        end
        else begin
          db.overlay.(id) <- dst;
          db.have.(id) <- true;
          touched := id :: !touched
        end
      end)
    order;
  let approx = Array.map lookup (Network.outputs db.net) in
  let result = k approx in
  List.iter
    (fun id ->
      release_buf db db.overlay.(id);
      db.overlay.(id) <- dummy;
      db.have.(id) <- false)
    !touched;
  result

(* ------------------------------------------------------------------ *)
(* Committed resimulation: consume the pending roots and update the stored
   signatures in place, in topological order, pruning wherever a node's
   recomputed signature equals the stored one. Displaced buffers go back
   to the pool. *)

let resimulate db =
  if db.mode = Journal then
    invalid_arg "Sigdb.resimulate: commit or undo the journal first";
  let roots = db.pending_roots in
  db.pending_roots <- [];
  if roots <> [] then begin
    let order, _ = collect_order db roots in
    let is_root = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace is_root r ()) roots;
    let changed = Hashtbl.create 64 in
    let lookup id = db.sigs.(id) in
    Array.iter
      (fun id ->
        let fis = Network.fanins db.net id in
        let dirty =
          Hashtbl.mem is_root id || Array.exists (Hashtbl.mem changed) fis
        in
        if dirty then begin
          let dst = take_buf db in
          db.counters.resim_nodes <- db.counters.resim_nodes + 1;
          Sim.eval_node_into db.net ~lookup id ~dst;
          let old = db.sigs.(id) in
          if Bitvec.length old > 0 && Bitvec.equal dst old then begin
            release_buf db dst;
            db.counters.resim_converged <- db.counters.resim_converged + 1
          end
          else begin
            Hashtbl.replace changed id ();
            if Bitvec.length old > 0 && not (Network.is_input db.net id) then
              release_buf db old;
            db.sigs.(id) <- dst;
            db.sig_changed <- id :: db.sig_changed
          end
        end)
      order;
    db.version <- db.version + 1
  end

(* ------------------------------------------------------------------ *)
(* Per-round structural refresh.

   Contract: every signature-changing mutation since the last refresh has
   been followed by [resimulate]; mutations still pending here must be
   function-preserving per node (e.g. [Cleanup.sweep]'s rewrites), so the
   stored signatures are already correct for the current definitions. *)

let refresh db =
  if db.mode = Journal then
    invalid_arg "Sigdb.refresh: commit or undo the journal first";
  let net = db.net in
  let n = Network.num_nodes net in
  let old_live = db.live in
  let live = Structure.live_set net in
  let order = Structure.topo_order ~live net in
  let topo_pos = Array.make n (-1) in
  Array.iteri (fun i id -> topo_pos.(id) <- i) order;
  let fanouts =
    Array.init n (fun id ->
        Array.of_list (List.filter (fun c -> live.(c)) db.fanouts_all.(id)))
  in
  let fanout_counts = Structure.fanout_counts net ~live in
  (* Liveness diff; every dead node hands its signature buffer back (a node
     added and committed this round can already be dead here without ever
     having been live, so this is not restricted to flips). Dead unused
     primary inputs keep their pattern vector: it is shared with
     [patterns.by_input] and must never enter the pool. *)
  let live_changed = ref [] in
  let n_old = Array.length old_live in
  for id = n - 1 downto 0 do
    let was = if id < n_old then old_live.(id) else false in
    if was <> live.(id) then live_changed := id :: !live_changed;
    if (not live.(id))
       && (not (Network.is_input net id))
       && Bitvec.length db.sigs.(id) > 0
    then begin
      release_buf db db.sigs.(id);
      db.sigs.(id) <- dummy
    end
  done;
  let struct_dirty = Array.make n false in
  List.iter
    (fun id -> if id < n then struct_dirty.(id) <- true)
    db.pending_touched;
  (* A liveness flip also dirties the node's fanins: a revived consumer
     extends its fanins' fanout cones, a dying one shrinks them. *)
  List.iter
    (fun id ->
      struct_dirty.(id) <- true;
      Array.iter (fun f -> struct_dirty.(f) <- true) (Network.fanins net id))
    !live_changed;
  let delta =
    {
      sig_changed = db.sig_changed;
      struct_dirty;
      redefined = db.redefined;
      live_changed = !live_changed;
    }
  in
  db.live <- live;
  db.order <- order;
  db.topo_pos <- topo_pos;
  db.fanouts <- fanouts;
  db.fanout_counts <- fanout_counts;
  db.pending_roots <- [];
  db.pending_touched <- [];
  db.redefined <- [];
  db.sig_changed <- [];
  db.version <- db.version + 1;
  delta

(* ------------------------------------------------------------------ *)

let create net patterns =
  let n = Network.num_nodes net in
  let live = Structure.live_set net in
  let order = Structure.topo_order ~live net in
  let topo_pos = Array.make n (-1) in
  Array.iteri (fun i id -> topo_pos.(id) <- i) order;
  let fanouts_all = Array.make (max 1 n) [] in
  for c = 0 to n - 1 do
    let seen = Hashtbl.create 4 in
    Array.iter
      (fun f ->
        if not (Hashtbl.mem seen f) then begin
          Hashtbl.add seen f ();
          fanouts_all.(f) <- c :: fanouts_all.(f)
        end)
      (Network.fanins net c)
  done;
  let fanouts =
    Array.init n (fun id ->
        Array.of_list (List.filter (fun c -> live.(c)) fanouts_all.(id)))
  in
  let fanout_counts = Structure.fanout_counts net ~live in
  let sigs = Sim.run ~live net patterns ~order in
  let db =
    {
      net;
      patterns;
      sigs;
      live;
      order;
      topo_pos;
      fanouts_all;
      fanouts;
      fanout_counts;
      version = 0;
      free = [];
      counters =
        {
          resim_nodes = 0;
          resim_converged = 0;
          buffers_recycled = 0;
          journal_undos = 0;
          journal_entries_undone = 0;
        };
      pending_roots = [];
      pending_touched = [];
      redefined = [];
      sig_changed = [];
      mode = Pending;
      j_entries = [];
      j_mark = n;
      j_roots = [];
      j_touched = [];
      overlay = Array.make (max 1 n) dummy;
      have = Array.make (max 1 n) false;
    }
  in
  Network.set_tracker net (Some (on_change db));
  db

let detach db = Network.set_tracker db.net None

(* Audit self-test hook: flip one bit of the first live non-input stored
   signature (in topological order), simulating silent state corruption
   that a shadow audit must catch. *)
let corrupt_signature db =
  let n = Array.length db.live in
  let rec find i =
    if i >= Array.length db.order then None
    else
      let id = db.order.(i) in
      if
        id < n && db.live.(id)
        && (not (Network.is_input db.net id))
        && Bitvec.length db.sigs.(id) > 0
      then Some id
      else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some id ->
    let s = db.sigs.(id) in
    Bitvec.set s 0 (not (Bitvec.get s 0));
    Some id
