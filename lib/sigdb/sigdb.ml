open Accals_network
module Bitvec = Accals_bitvec.Bitvec

(* A per-node signature database.

   The database owns the node signatures of one concrete network and keeps
   them valid across in-place mutation: it listens to [Network.change]
   events, maintains the full fanout lists incrementally, and after a batch
   of definition changes re-evaluates only the transitive fanout cone of
   the changed nodes, stopping early wherever a recomputed signature equals
   the stored one (event-driven resimulation, through {!Overlay}).
   Candidate LAC sets are evaluated under an undo journal: the set is
   applied to the live network, the affected outputs are recomputed into
   the overlay, and the journal restores the network (and the incremental
   structures) exactly.

   Every change event lands in one change log (resimulation roots,
   structurally touched nodes, redefined nodes) whether or not a journal
   is open; a journal only remembers where the log stood and cuts it back
   on undo.

   Exactness contract: for live nodes, [sigs db] is always bit-identical to
   a from-scratch [Sim.run] over a topological order of the current
   network. The per-round views (live set, topological order, live-filtered
   fanouts, fanout counts) are *recomputed* by [refresh] with the same
   [Structure] routines the rebuild path uses, so candidate enumeration
   order — and therefore every downstream tie-break — cannot diverge from
   the rebuild-everything path. Only the expensive bitvector work is
   incremental. *)

type counters = Overlay.counters = {
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

(* An open journal: the node count and the change log as they stood at
   [begin_journal], and the entries to replay, newest first. *)
type journal = {
  nodes : int;
  log_roots : int list;
  log_touched : int list;
  log_redefined : int list;
  mutable entries : journal_entry list;
}

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
  overlay : Overlay.t;  (* cone evaluation and the buffer pool *)
  (* change log since the last refresh *)
  mutable roots : int list;  (* resimulation roots not yet consumed *)
  mutable touched : int list;
  mutable redefined : int list;  (* definition changes and additions *)
  mutable sig_changed : int list;
  mutable journal : journal option;
}

let dummy = Bitvec.create 0

let network db = db.net
let patterns db = db.patterns
let counters db = Overlay.counters db.overlay

let live_view db = db.live
let order_view db = db.order
let topo_pos_view db = db.topo_pos
let fanouts_view db = db.fanouts
let fanout_counts_view db = db.fanout_counts
let sigs_view db = db.sigs

(* Memory-pressure relief: drop the recycled buffers. Purely a perf/space
   trade — the next resimulation allocates fresh ones, and nothing about
   signatures or enumeration order changes. *)
let pool_bytes db = Overlay.pool_bytes db.overlay
let trim_pool db = Overlay.trim db.overlay

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
    db.fanouts_all <- fos
  end

(* ------------------------------------------------------------------ *)
(* Change tracking *)

let journal_add db e =
  match db.journal with Some j -> j.entries <- e :: j.entries | None -> ()

(* A definition change or addition: a resimulation root, structurally
   touched together with its old and new fanins. *)
let log_definition db id ~old_fanins nf =
  db.roots <- id :: db.roots;
  db.redefined <- id :: db.redefined;
  db.touched <-
    id :: List.rev_append (Array.to_list old_fanins)
            (List.rev_append (Array.to_list nf) db.touched)

let on_change db = function
  | Network.Replaced { id; old_op; old_fanins } ->
    Array.iter (fun f -> remove_fanout db f id) old_fanins;
    let nf = Network.fanins db.net id in
    Array.iter (fun f -> insert_fanout db f id) nf;
    journal_add db (J_replace { id; old_op; old_fanins });
    log_definition db id ~old_fanins nf
  | Network.Added id ->
    ensure_capacity db;
    let nf = Network.fanins db.net id in
    Array.iter (fun f -> insert_fanout db f id) nf;
    log_definition db id ~old_fanins:[||] nf
  | Network.Outputs_changed { old_ids; old_names } ->
    (* Output rewiring changes no signature, so no resimulation root; but
       which nodes drive outputs feeds criticality, so both the old and
       the new driver sets count as structurally touched. *)
    journal_add db (J_outputs { old_ids; old_names });
    db.touched <-
      Array.to_list old_ids @ Array.to_list (Network.outputs db.net) @ db.touched

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
  Array.of_list (List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Journal *)

let begin_journal db =
  if db.journal <> None then
    invalid_arg "Sigdb.begin_journal: journal already active";
  db.journal <-
    Some
      {
        nodes = Network.num_nodes db.net;
        log_roots = db.roots;
        log_touched = db.touched;
        log_redefined = db.redefined;
        entries = [];
      }

(* Replaying the entries logs their reversal like any change; cutting the
   log back to the mark then drops both. *)
let undo_journal db =
  let j =
    match db.journal with
    | Some j -> j
    | None -> invalid_arg "Sigdb.undo_journal: no active journal"
  in
  db.journal <- None;
  let c = counters db in
  c.journal_undos <- c.journal_undos + 1;
  c.journal_entries_undone <- c.journal_entries_undone + List.length j.entries;
  List.iter
    (function
      | J_replace { id; old_op; old_fanins } ->
        Network.replace ~check_cycle:false db.net id old_op old_fanins
      | J_outputs { old_ids; old_names } ->
        Network.set_outputs db.net
          (Array.map2 (fun nm id -> (nm, id)) old_names old_ids))
    j.entries;
  for id = j.nodes to Network.num_nodes db.net - 1 do
    Array.iter (fun f -> remove_fanout db f id) (Network.fanins db.net id)
  done;
  Network.truncate db.net j.nodes;
  db.roots <- j.log_roots;
  db.touched <- j.log_touched;
  db.redefined <- j.log_redefined

(* Overlay evaluation of every logged change not yet resimulated — under
   the usage protocol, exactly the journaled ones: recompute the affected
   part of the cone, hand the resulting primary-output signatures to [k],
   then return every overlay buffer to the pool. The stored signatures are
   never touched. *)
let with_journal_outputs db k =
  if db.journal = None then
    invalid_arg "Sigdb.with_journal_outputs: no active journal";
  let roots = db.roots in
  Overlay.propagate db.overlay db.net ~sigs:db.sigs ~roots (collect_order db roots);
  let result = k (Overlay.outputs db.overlay db.net ~sigs:db.sigs) in
  Overlay.release db.overlay;
  result

(* ------------------------------------------------------------------ *)
(* Committed resimulation: consume the pending roots and update the stored
   signatures in place, in topological order, pruning wherever a node's
   recomputed signature equals the stored one. Displaced buffers go back
   to the pool. *)

let resimulate db =
  if db.journal <> None then invalid_arg "Sigdb.resimulate: undo the journal first";
  let roots = db.roots in
  db.roots <- [];
  if roots <> [] then
    db.sig_changed <-
      Overlay.commit db.overlay db.net ~sigs:db.sigs ~roots (collect_order db roots)
      @ db.sig_changed

(* ------------------------------------------------------------------ *)
(* Per-round structural refresh.

   Contract: every signature-changing mutation since the last refresh has
   been followed by [resimulate]; mutations still pending here must be
   function-preserving per node (e.g. [Cleanup.sweep]'s rewrites), so the
   stored signatures are already correct for the current definitions. *)

let refresh db =
  if db.journal <> None then invalid_arg "Sigdb.refresh: undo the journal first";
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
      Overlay.give db.overlay db.sigs.(id);
      db.sigs.(id) <- dummy
    end
  done;
  let struct_dirty = Array.make n false in
  List.iter (fun id -> if id < n then struct_dirty.(id) <- true) db.touched;
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
  db.roots <- [];
  db.touched <- [];
  db.redefined <- [];
  db.sig_changed <- [];
  delta

(* ------------------------------------------------------------------ *)

(* The consumer lists are the only state [refresh] does not derive; an
   empty database refreshed once holds every view, and one full
   simulation over its order fills the signatures. *)
let create net patterns =
  let n = Network.num_nodes net in
  let fanouts_all = Array.make (max 1 n) [] in
  for c = 0 to n - 1 do
    let fis = Network.fanins net c in
    Array.iteri
      (fun j f ->
        if not (Structure.repeated fis j) then fanouts_all.(f) <- c :: fanouts_all.(f))
      fis
  done;
  let db =
    {
      net;
      patterns;
      sigs = Array.make n dummy;
      live = [||];
      order = [||];
      topo_pos = [||];
      fanouts_all;
      fanouts = [||];
      fanout_counts = [||];
      overlay = Overlay.create patterns.Sim.count;
      roots = [];
      touched = [];
      redefined = [];
      sig_changed = [];
      journal = None;
    }
  in
  ignore (refresh db);
  db.sigs <- Sim.run ~live:db.live net patterns ~order:db.order;
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
