type site = Open | Write | Rename | Fsync
type kind = Enospc | Emfile | Short

type clause = {
  site : site;
  kind : kind;
  sel : [ `At of int * int | `Every of int ];
}

type spec = { seed : int; clauses : clause list }

let kind_name = function
  | Enospc -> "enospc"
  | Emfile -> "emfile"
  | Short -> "short"

let site_of_string = function
  | "open" -> Some Open
  | "write" -> Some Write
  | "rename" -> Some Rename
  | "fsync" -> Some Fsync
  | _ -> None

let kind_of_string = function
  | "enospc" -> Some Enospc
  | "emfile" -> Some Emfile
  | "short" -> Some Short
  | _ -> None

(* A clause is [site:kind@N], [site:kind@N..M] or [site:kind%K]; the spec
   also carries at most one [seed:N] field (required iff a % clause is
   present, since the 1-in-K decision is keyed on the seed). *)
let parse_clause field =
  match String.index_opt field ':' with
  | None -> Error (Printf.sprintf "expected site:kind@N or seed:N, got %S" field)
  | Some i ->
    let site_s = String.sub field 0 i in
    let rest = String.sub field (i + 1) (String.length field - i - 1) in
    (match site_of_string site_s with
     | None -> Error (Printf.sprintf "unknown fault site %S" site_s)
     | Some site ->
       let split_once c s =
         match String.index_opt s c with
         | None -> None
         | Some j ->
           Some (String.sub s 0 j, String.sub s (j + 1) (String.length s - j - 1))
       in
       let with_kind kind_s k =
         match kind_of_string kind_s with
         | None -> Error (Printf.sprintf "unknown fault kind %S" kind_s)
         | Some kind -> k kind
       in
       (match split_once '@' rest with
        | Some (kind_s, occ) ->
          with_kind kind_s (fun kind ->
              match split_once '.' occ with
              | Some (lo, hi_dotted)
                when String.length hi_dotted > 0 && hi_dotted.[0] = '.' ->
                let hi = String.sub hi_dotted 1 (String.length hi_dotted - 1) in
                (match (int_of_string_opt lo, int_of_string_opt hi) with
                 | Some lo, Some hi when lo >= 1 && hi >= lo ->
                   Ok { site; kind; sel = `At (lo, hi) }
                 | _ ->
                   Error
                     (Printf.sprintf "bad occurrence range %S (want N..M, 1-based)"
                        occ))
              | _ -> (
                match int_of_string_opt occ with
                | Some n when n >= 1 -> Ok { site; kind; sel = `At (n, n) }
                | _ ->
                  Error
                    (Printf.sprintf "bad occurrence %S (want a 1-based count)" occ)))
        | None -> (
          match split_once '%' rest with
          | Some (kind_s, k) ->
            with_kind kind_s (fun kind ->
                match int_of_string_opt k with
                | Some k when k >= 1 -> Ok { site; kind; sel = `Every k }
                | _ -> Error (Printf.sprintf "bad period %S (want K >= 1)" k))
          | None ->
            Error
              (Printf.sprintf "clause %S needs @N, @N..M or %%K after the kind"
                 field))))

let parse s =
  let fields =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  if fields = [] then Error "empty spec"
  else
    let rec go seed clauses = function
      | [] ->
        let clauses = List.rev clauses in
        if clauses = [] then Error "spec has no fault clauses"
        else if
          seed = None
          && List.exists (fun c -> match c.sel with `Every _ -> true | _ -> false)
               clauses
        then Error "%K clauses require a seed:N field"
        else Ok { seed = Option.value seed ~default:0; clauses }
      | f :: rest ->
        if String.length f >= 5 && String.sub f 0 5 = "seed:" then
          match int_of_string_opt (String.sub f 5 (String.length f - 5)) with
          | Some n -> go (Some n) clauses rest
          | None -> Error (Printf.sprintf "seed expects an integer, got %S" f)
        else
          (match parse_clause f with
           | Ok c -> go seed (c :: clauses) rest
           | Error _ as e -> e)
    in
    go None [] fields

let state : spec option Atomic.t =
  let initial =
    match Sys.getenv_opt "ACCALS_SYSCALL_FAULTS" with
    | None | Some "" -> None
    | Some s -> (
      match parse s with
      | Ok spec -> Some spec
      | Error msg ->
        Printf.eprintf "accals: invalid ACCALS_SYSCALL_FAULTS %S: %s\n%!" s msg;
        exit 2)
  in
  Atomic.make initial

(* Per-site occurrence counters; 1-based at the point of decision. *)
let counters = [| Atomic.make 0; Atomic.make 0; Atomic.make 0; Atomic.make 0 |]

let site_index = function Open -> 0 | Write -> 1 | Rename -> 2 | Fsync -> 3

let reset_counters () = Array.iter (fun c -> Atomic.set c 0) counters

let injections = Atomic.make 0
let injected_count () = Atomic.get injections

let arm spec =
  reset_counters ();
  Atomic.set injections 0;
  Atomic.set state (Some spec)

let disarm () = Atomic.set state None
let current () = Atomic.get state

let selects spec clause ~occurrence =
  match clause.sel with
  | `At (lo, hi) -> occurrence >= lo && occurrence <= hi
  | `Every k ->
    k <= 1
    ||
    let key =
      Int64.add
        (Int64.mul (Int64.of_int spec.seed) 0x9E3779B97F4A7C15L)
        (Int64.add
           (Int64.mul (Int64.of_int (site_index clause.site)) 0xD1B54A32D192ED03L)
           (Int64.of_int occurrence))
    in
    Int64.rem (Int64.shift_right_logical (Fault.mix64 key) 1) (Int64.of_int k)
    = 0L

(* Returns the kind to inject at this call site, if any, bumping the site's
   occurrence counter exactly once per governed call. *)
let check site =
  match Atomic.get state with
  | None -> None
  | Some spec ->
    let occurrence = 1 + Atomic.fetch_and_add counters.(site_index site) 1 in
    let hit =
      List.find_opt
        (fun c -> c.site = site && selects spec c ~occurrence)
        spec.clauses
    in
    (match hit with
     | Some c ->
       Atomic.incr injections;
       Some c.kind
     | None -> None)

let unix_error kind ~syscall ~arg =
  let err = match kind with
    | Emfile -> Unix.EMFILE
    | Enospc | Short -> Unix.ENOSPC
  in
  raise (Unix.Unix_error (err, syscall, arg))

let open_out_bin path =
  match check Open with
  | Some kind -> unix_error kind ~syscall:"open" ~arg:path
  | None -> open_out_bin path

let write_faulted kind oc ~emit_prefix =
  (match kind with Short -> emit_prefix () | Enospc | Emfile -> ());
  (* Land the torn prefix before raising, so the file on disk really is
     short — that is the state the recovery path must survive. *)
  (try flush oc with Sys_error _ -> ());
  unix_error kind ~syscall:"write" ~arg:""

let output_string oc s =
  match check Write with
  | None -> output_string oc s
  | Some kind ->
    write_faulted kind oc ~emit_prefix:(fun () ->
        output_substring oc s 0 (String.length s / 2))

let output_bytes oc b =
  match check Write with
  | None -> output_bytes oc b
  | Some kind ->
    write_faulted kind oc ~emit_prefix:(fun () ->
        output oc b 0 (Bytes.length b / 2))

let fsync fd =
  match check Fsync with
  | Some kind -> unix_error kind ~syscall:"fsync" ~arg:""
  | None -> Unix.fsync fd

let rename src dst =
  match check Rename with
  | Some kind -> unix_error kind ~syscall:"rename" ~arg:dst
  | None -> Sys.rename src dst
