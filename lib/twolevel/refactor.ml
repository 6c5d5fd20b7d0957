open Accals_network

(* Two phases so every analysis is computed on a frozen network: first
   collect profitable rewrites, then apply a non-overlapping subset (MFFCs
   pairwise disjoint, no leaf inside an applied MFFC). Exact SOP rewrites
   preserve every node function, so the collected truths stay valid. *)
let run net =
  let order = Structure.topo_order net in
  let cuts = Cut_enum.enumerate net ~order ~k:4 ~per_node:4 in
  let live = Structure.live_set net in
  let mffc = Mffc.create net ~live ~fanout_counts:(Structure.fanout_counts net ~live) in
  let proposals = ref [] in
  let scratch = Truth.scratch () in
  (* Covers are a pure function of their key, so sharing them across the
     call's cuts cannot change a rewrite. *)
  let qm = Qm.memo () in
  Array.iter
    (fun target ->
      if live.(target) && not (Network.is_input net target) then begin
        let cone = Mffc.cone mffc target in
        let best = ref None in
        List.iter
          (fun leaves ->
            if Array.length leaves >= 2 && Array.length leaves <= Truth.max_vars
            then
              match Truth.of_cone ~scratch net ~leaves ~root:target with
              | exception Invalid_argument _ -> ()
              | truth ->
                let vars = Array.length leaves in
                let cubes = Qm.minimize_memo qm ~vars ~on:truth ~dc:0 in
                let gain =
                  Mffc.freed_area mffc cone (Array.to_list leaves)
                  -. Sop_synth.estimated_area cubes
                in
                if gain > 0.0 then
                  match !best with
                  | Some (g, _, _) when g >= gain -> ()
                  | Some _ | None -> best := Some (gain, leaves, cubes))
          cuts.(target);
        match !best with
        | None -> ()
        | Some (gain, leaves, cubes) ->
          proposals := (gain, target, Mffc.nodes cone, leaves, cubes) :: !proposals
      end)
    order;
  let ordered =
    List.sort (fun (g1, _, _, _, _) (g2, _, _, _, _) -> compare g2 g1) !proposals
  in
  let claimed = Array.make (Network.num_nodes net) false in
  let rewritten = ref 0 in
  List.iter
    (fun (_, target, mffc, leaves, cubes) ->
      let clash =
        List.exists (fun id -> claimed.(id)) mffc
        || Array.exists (fun id -> claimed.(id)) leaves
      in
      if not clash then begin
        List.iter (fun id -> claimed.(id) <- true) mffc;
        let root = Sop_synth.build net ~leaves cubes in
        Network.replace ~check_cycle:false net target Gate.Buf [| root |];
        incr rewritten
      end)
    ordered;
  !rewritten
