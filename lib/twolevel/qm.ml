type cube = { mask : int; value : int }

let cube_covers c m = m land c.mask = c.value

let cube_literals c =
  let v = ref c.mask and count = ref 0 in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr count
  done;
  !count

let cubes_truth ~vars cubes =
  let t = ref 0 in
  for m = 0 to Truth.rows vars - 1 do
    if List.exists (fun c -> cube_covers c m) cubes then t := Truth.set !t m true
  done;
  !t

(* Every cube over [vars] variables, built once per variable count. Cube
   [i] encodes variable [v]'s state in base-3 digit [v] of [i]: 0 = negative
   literal, 1 = positive literal, 2 = absent. [sets.(i)] is the cube's
   minterm set as a truth table, and [order] lists the cube indices in
   [compare] order of their cubes. A cube covering a minterm an int
   cannot hold (minterm 63 at [vars = 6]) gets [sets.(i) = -1]: [Truth.get]
   reports such a minterm absent from every care set, so the cube is never
   an implicant. *)
type table = {
  pow3 : int array;
  cubes : cube array;
  sets : int array;
  order : int array;
}

let build_table vars =
  let pow3 = Array.make (vars + 1) 1 in
  for v = 1 to vars do
    pow3.(v) <- 3 * pow3.(v - 1)
  done;
  let count = pow3.(vars) in
  let cubes = Array.make count { mask = 0; value = 0 } in
  let sets = Array.make count 0 in
  for i = 0 to count - 1 do
    let mask = ref 0 and value = ref 0 in
    for v = 0 to vars - 1 do
      match i / pow3.(v) mod 3 with
      | 0 -> mask := !mask lor (1 lsl v)
      | 1 ->
        mask := !mask lor (1 lsl v);
        value := !value lor (1 lsl v)
      | _ -> ()
    done;
    let c = { mask = !mask; value = !value } in
    cubes.(i) <- c;
    let set = ref 0 and representable = ref true in
    for m = 0 to Truth.rows vars - 1 do
      if cube_covers c m then
        if Truth.get (Truth.set 0 m true) m then set := Truth.set !set m true
        else representable := false
    done;
    sets.(i) <- (if !representable then !set else -1)
  done;
  let order = Array.init count Fun.id in
  Array.stable_sort (fun a b -> compare cubes.(a) cubes.(b)) order;
  { pow3; cubes; sets; order }

let tables = Array.init (Truth.max_vars + 1) build_table

(* Table indices of the prime implicants of [care], in [compare] order of
   their cubes. A cube is an implicant when its minterm set lies inside
   [care], and prime when dropping any one of its literals leaves a
   non-implicant. *)
let prime_indices ~vars ~care =
  let { pow3; sets; order; _ } = tables.(vars) in
  let implicant i = sets.(i) <> -1 && sets.(i) land care = sets.(i) in
  let prime i =
    implicant i
    &&
    let rec no_larger v =
      v = vars
      ||
      let digit = i / pow3.(v) mod 3 in
      (digit = 2 || not (implicant (i + ((2 - digit) * pow3.(v)))))
      && no_larger (v + 1)
    in
    no_larger 0
  in
  let result = ref [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    if prime i then result := i :: !result
  done;
  !result

let primes ~vars ~care =
  List.map (fun i -> tables.(vars).cubes.(i)) (prime_indices ~vars ~care)

let popcount x =
  let v = ref x and count = ref 0 in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr count
  done;
  !count

(* Minterm sets are truth tables here: [covers.(p)] is the set of ON
   minterms prime [p] covers, and [uncovered] the ON minterms no chosen
   prime covers yet. *)
let minimize ~vars ~on ?(dc = 0) () =
  let on = on land Truth.mask vars in
  let dc = dc land Truth.mask vars land lnot on in
  if on = 0 then []
  else begin
    let { cubes; sets; _ } = tables.(vars) in
    let primes = Array.of_list (prime_indices ~vars ~care:(on lor dc)) in
    let covers = Array.map (fun i -> sets.(i) land on) primes in
    let literals p = cube_literals cubes.(primes.(p)) in
    let union ps = List.fold_left (fun acc p -> acc lor covers.(p)) 0 ps in
    let chosen = ref [] in
    let is_chosen = Array.make (Array.length primes) false in
    let choose p =
      chosen := p :: !chosen;
      is_chosen.(p) <- true
    in
    (* Essential primes first: the only prime covering some ON minterm. *)
    for m = 0 to Truth.rows vars - 1 do
      if Truth.get on m then begin
        let only = ref (-1) and count = ref 0 in
        Array.iteri
          (fun p set ->
            if Truth.get set m then begin
              only := p;
              incr count
            end)
          covers;
        if !count = 1 && not is_chosen.(!only) then choose !only
      end
    done;
    let uncovered = ref (on land lnot (union !chosen)) in
    (* Greedy: pick the prime covering the most uncovered minterms; ties by
       fewer literals, then by prime order. *)
    while !uncovered <> 0 do
      let best = ref (-1) and best_gain = ref 0 in
      Array.iteri
        (fun p set ->
          if not is_chosen.(p) then begin
            let gain = popcount (set land !uncovered) in
            if gain > !best_gain
               || (gain = !best_gain && gain > 0 && literals p < literals !best)
            then begin
              best := p;
              best_gain := gain
            end
          end)
        covers;
      if !best < 0 then uncovered := 0 (* unreachable: primes cover all of on *)
      else begin
        choose !best;
        uncovered := !uncovered land lnot covers.(!best)
      end
    done;
    (* Drop redundant chosen cubes (an essential pass can overshoot), most
       recently chosen first. *)
    let rec prune kept = function
      | [] -> kept
      | p :: rest ->
        if covers.(p) land lnot (union kept lor union rest) = 0 then prune kept rest
        else prune (p :: kept) rest
    in
    List.map (fun p -> cubes.(primes.(p))) (prune [] !chosen)
  end

let literal_cost cubes = List.fold_left (fun acc c -> acc + cube_literals c) 0 cubes

type memo = (int, cube list) Hashtbl.t

let memo () = Hashtbl.create 256

(* Up to 4 variables, the masked ON and DC sets fit 16 bits each, so
   [(vars, on, dc)] packs into one immediate int. *)
let minimize_memo memo ~vars ~on ~dc =
  if vars > 4 then minimize ~vars ~on ~dc ()
  else begin
    let on = on land Truth.mask vars in
    let dc = dc land Truth.mask vars land lnot on in
    let key = vars lor (on lsl 3) lor (dc lsl 19) in
    match Hashtbl.find_opt memo key with
    | Some cubes -> cubes
    | None ->
      let cubes = minimize ~vars ~on ~dc () in
      Hashtbl.add memo key cubes;
      cubes
  end
