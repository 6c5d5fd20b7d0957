type mode = Multi | Single

type round = {
  index : int;
  mode : mode;
  candidates : int;
  top_count : int;
  sol_count : int;
  indp_count : int;
  rand_count : int;
  chose_indp : bool option;
  applied : int;
  skipped_cycles : int;
  error_before : float;
  error_after : float;
  estimated_error : float;
  reverted : bool;
  area : float;
  resim_nodes : int;
  resim_converged : int;
  resim_recycled : int;
}

let indp_ratio rounds =
  let decided = List.filter_map (fun r -> r.chose_indp) rounds in
  match decided with
  | [] -> 0.0
  | _ ->
    let wins = List.length (List.filter (fun b -> b) decided) in
    float_of_int wins /. float_of_int (List.length decided)

let to_csv rounds =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "round,mode,candidates,top,sol,indp,rand,chose_indp,applied,skipped,\
     error_before,error_after,estimated_error,reverted,area,\
     resim_nodes,resim_converged,resim_recycled\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "%d,%s,%d,%d,%d,%d,%d,%s,%d,%d,%.9f,%.9f,%.9f,%b,%.1f,%d,%d,%d\n"
           r.index
           (match r.mode with Multi -> "multi" | Single -> "single")
           r.candidates r.top_count r.sol_count r.indp_count r.rand_count
           (match r.chose_indp with
            | Some true -> "indp"
            | Some false -> "rand"
            | None -> "-")
           r.applied r.skipped_cycles r.error_before r.error_after
           r.estimated_error r.reverted r.area r.resim_nodes r.resim_converged
           r.resim_recycled))
    rounds;
  Buffer.contents buf

(* Strict inverse of [to_csv]: same column set, same encodings. Raises
   [Failure] on arity or field mismatches so the round-trip test (and any
   external consumer) catches format drift immediately. *)
let of_csv text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> failwith "Trace.of_csv: empty input"
  | header :: rows ->
    let expected =
      "round,mode,candidates,top,sol,indp,rand,chose_indp,applied,skipped,\
       error_before,error_after,estimated_error,reverted,area,\
       resim_nodes,resim_converged,resim_recycled"
    in
    if header <> expected then
      failwith
        (Printf.sprintf "Trace.of_csv: unexpected header %S" header);
    let int ~row ~col s =
      match int_of_string_opt s with
      | Some i -> i
      | None ->
        failwith
          (Printf.sprintf "Trace.of_csv: row %d: bad int %S in %s" row s col)
    in
    let fl ~row ~col s =
      match float_of_string_opt s with
      | Some x -> x
      | None ->
        failwith
          (Printf.sprintf "Trace.of_csv: row %d: bad float %S in %s" row s col)
    in
    List.mapi
      (fun i row ->
        let rn = i + 1 in
        match String.split_on_char ',' row with
        | [
         index; mode; candidates; top; sol; indp; rand; chose; applied;
         skipped; e_before; e_after; e_est; reverted; area; r_nodes; r_conv;
         r_rec;
        ] ->
          {
            index = int ~row:rn ~col:"round" index;
            mode =
              (match mode with
               | "multi" -> Multi
               | "single" -> Single
               | m ->
                 failwith
                   (Printf.sprintf "Trace.of_csv: row %d: bad mode %S" rn m));
            candidates = int ~row:rn ~col:"candidates" candidates;
            top_count = int ~row:rn ~col:"top" top;
            sol_count = int ~row:rn ~col:"sol" sol;
            indp_count = int ~row:rn ~col:"indp" indp;
            rand_count = int ~row:rn ~col:"rand" rand;
            chose_indp =
              (match chose with
               | "indp" -> Some true
               | "rand" -> Some false
               | "-" -> None
               | c ->
                 failwith
                   (Printf.sprintf "Trace.of_csv: row %d: bad chose_indp %S"
                      rn c));
            applied = int ~row:rn ~col:"applied" applied;
            skipped_cycles = int ~row:rn ~col:"skipped" skipped;
            error_before = fl ~row:rn ~col:"error_before" e_before;
            error_after = fl ~row:rn ~col:"error_after" e_after;
            estimated_error = fl ~row:rn ~col:"estimated_error" e_est;
            reverted =
              (match bool_of_string_opt reverted with
               | Some b -> b
               | None ->
                 failwith
                   (Printf.sprintf "Trace.of_csv: row %d: bad reverted %S" rn
                      reverted));
            area = fl ~row:rn ~col:"area" area;
            resim_nodes = int ~row:rn ~col:"resim_nodes" r_nodes;
            resim_converged = int ~row:rn ~col:"resim_converged" r_conv;
            resim_recycled = int ~row:rn ~col:"resim_recycled" r_rec;
          }
        | fields ->
          failwith
            (Printf.sprintf "Trace.of_csv: row %d has %d fields, want 18" rn
               (List.length fields)))
      rows

let write_csv rounds path =
  let oc = open_out path in
  (try output_string oc (to_csv rounds) with e -> close_out oc; raise e);
  close_out oc

let summary rounds =
  let n = List.length rounds in
  let applied = List.fold_left (fun acc r -> acc + r.applied) 0 rounds in
  let reverts = List.length (List.filter (fun r -> r.reverted) rounds) in
  Printf.sprintf "%d rounds, %d LACs applied, %d reverts, L_indp ratio %.2f" n
    applied reverts (indp_ratio rounds)

let resim_summary rounds =
  let nodes = List.fold_left (fun acc r -> acc + r.resim_nodes) 0 rounds in
  let converged =
    List.fold_left (fun acc r -> acc + r.resim_converged) 0 rounds
  in
  let recycled =
    List.fold_left (fun acc r -> acc + r.resim_recycled) 0 rounds
  in
  Printf.sprintf
    "%d node evaluations (%d stopped early, %d buffers recycled)" nodes
    converged recycled

(* Runtime accounting (from lib/runtime), formatted next to the round trace
   so synthesis reports carry both the algorithmic and the execution view. *)

let stats_summary (s : Accals_runtime.Stats.snapshot) =
  Printf.sprintf "%d domain%s, %d tasks in %d batches, %d worker waits"
    s.Accals_runtime.Stats.jobs
    (if s.Accals_runtime.Stats.jobs = 1 then "" else "s")
    s.Accals_runtime.Stats.tasks s.Accals_runtime.Stats.batches
    s.Accals_runtime.Stats.waits

let phases_summary (s : Accals_runtime.Stats.snapshot) =
  match s.Accals_runtime.Stats.phases with
  | [] -> "no phases recorded"
  | phases ->
    String.concat ", "
      (List.map (fun (name, t) -> Printf.sprintf "%s %.2fs" name t) phases)
