open Accals_lac

let find_and_solve lacs =
  let arr = Array.of_list lacs in
  let n = Array.length arr in
  (* Ascending weight = ascending ΔE; stable on ties. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare arr.(a).Lac.delta_error arr.(b).Lac.delta_error with
      | 0 -> compare a b
      | c -> c)
    order;
  (* The graph stays implicit: a LAC conflicts with a kept one iff they
     share a target (Type 1) or a target of one is an SN of the other
     (Type 2), so the kept set's targets and SNs decide all its edges. *)
  let taken_targets = Hashtbl.create n and taken_sns = Hashtbl.create n in
  let selected = Array.make n false in
  Array.iter
    (fun i ->
      let target = arr.(i).Lac.target in
      let sns = Lac.substitute_nodes arr.(i) in
      if
        not
          (Hashtbl.mem taken_targets target
          || Hashtbl.mem taken_sns target
          || List.exists (Hashtbl.mem taken_targets) sns)
      then begin
        selected.(i) <- true;
        Hashtbl.replace taken_targets target ();
        List.iter (fun s -> Hashtbl.replace taken_sns s ()) sns
      end)
    order;
  let l_sol = ref [] and n_sol = ref [] in
  for i = n - 1 downto 0 do
    if selected.(i) then begin
      l_sol := arr.(i) :: !l_sol;
      n_sol := arr.(i).Lac.target :: !n_sol
    end
  done;
  (!l_sol, !n_sol)
