module Json = Accals_telemetry.Json
module Metric = Accals_metrics.Metric

type t = { dir : string }

type entry = { key : string; report : Json.t; blif : string }

let create ~dir =
  Accals_resilience.Budget.Disk.ensure_dir dir;
  { dir }

let dir t = t.dir

let key ~digest ~metric ~bound ~samples ~seed =
  (* Readable on purpose: `ls` of the cache directory shows what is
     cached.  %h is the shortest exact float encoding, hex so the key
     never depends on decimal rounding. *)
  Printf.sprintf "%s-%s-%h-s%d-r%d" digest
    (String.lowercase_ascii (Metric.kind_to_string metric))
    bound samples seed
  |> String.map (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' -> c
         | _ -> '_')

let path t key = Filename.concat t.dir (key ^ ".json")

let parse_entry k contents =
  match Json.parse contents with
  | Error _ -> None
  | Ok v -> (
    let str f = Option.bind (Json.member f v) Json.string_opt in
    match (str "key", Json.member "report" v, str "blif") with
    | Some stored_key, Some report, Some blif when stored_key = k ->
      Some { key = k; report; blif }
    | _ -> None)

(* Reading must never leak the channel and must treat *any* failure as a
   miss: a truncated entry makes [really_input_string] raise
   [End_of_file], which a [Sys_error]-only handler would let escape —
   taking the input channel with it.  [Fun.protect] owns the close. *)
let read_file file =
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic -> (
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | contents -> Some contents
        | exception _ -> None))

let remove_quietly file = try Sys.remove file with Sys_error _ -> ()

(* Touch an entry on every hit so the file mtime orders the entries by
   last use — the eviction pass below is LRU because of this. *)
let touch file = try Unix.utimes file 0.0 0.0 with Unix.Unix_error _ -> ()

let find t k =
  let file = path t k in
  match Option.bind (read_file file) (parse_entry k) with
  | Some e ->
    touch file;
    Some e
  | None ->
    (* A corrupt or mismatched entry can never become a hit; delete it
       so it stops costing an open + parse on every lookup. A missing
       file makes [remove_quietly] a no-op. *)
    if Sys.file_exists file then remove_quietly file;
    None

let entry_files t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           Filename.check_suffix f ".json"
           && not (String.length f > 0 && f.[0] = '.'))

let size t = List.length (entry_files t)

let bytes t =
  List.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat t.dir f) with
      | st -> acc + st.Unix.st_size
      | exception Unix.Unix_error _ -> acc)
    0 (entry_files t)

type eviction = { removed_corrupt : int; removed_lru : int; bytes_after : int }

let evict t ~max_bytes =
  let stats =
    List.filter_map
      (fun f ->
        let file = Filename.concat t.dir f in
        match Unix.stat file with
        | st -> Some (file, st.Unix.st_size, st.Unix.st_mtime)
        | exception Unix.Unix_error _ -> None)
      (entry_files t)
  in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 stats in
  if total <= max_bytes then
    { removed_corrupt = 0; removed_lru = 0; bytes_after = total }
  else begin
    (* Over the cap: corrupt entries go first (they can never be hits),
       then least-recently-used entries until the cache fits.  The
       entry's own key is recorded inside the file, so corruption is
       detected exactly as [find] would: unreadable, unparsable, or a
       stored key that does not match the filename. *)
    let key_of file = Filename.remove_extension (Filename.basename file) in
    let corrupt, valid =
      List.partition
        (fun (file, _, _) ->
          Option.bind (read_file file) (parse_entry (key_of file)) = None)
        stats
    in
    List.iter (fun (file, _, _) -> remove_quietly file) corrupt;
    let total =
      List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 valid
    in
    let by_age =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) valid
    in
    let removed_lru = ref 0 in
    let remaining = ref total in
    List.iter
      (fun (file, sz, _) ->
        if !remaining > max_bytes then begin
          remove_quietly file;
          remaining := !remaining - sz;
          incr removed_lru
        end)
      by_age;
    {
      removed_corrupt = List.length corrupt;
      removed_lru = !removed_lru;
      bytes_after = !remaining;
    }
  end

module Fault_io = Accals_resilience.Fault_io

let members e =
  let buf = Buffer.create (String.length e.blif + 4096) in
  Json.add_members buf [ ("report", e.report); ("blif", Json.String e.blif) ];
  Buffer.contents buf

let store_members ?(max_bytes = 0) t ~key members =
  let final = path t key in
  (* The file is the object {"key":…,"report":…,"blif":…} and a newline,
     the bytes [Json.to_string] prints for the whole entry. *)
  let payload =
    let buf = Buffer.create (String.length members + String.length key + 16) in
    Buffer.add_char buf '{';
    Json.add_members buf [ ("key", Json.String key) ];
    Buffer.add_char buf ',';
    Buffer.add_string buf members;
    Buffer.add_string buf "}\n";
    Buffer.contents buf
  in
  (* Make room *before* writing: a store into an almost-full cache must
     never overshoot the cap, even transiently (a concurrent du / quota
     check would see the excursion). The new entry's own size is part of
     the target, so the write below fits by construction. *)
  if max_bytes > 0 && bytes t + String.length payload > max_bytes then
    ignore (evict t ~max_bytes:(max 0 (max_bytes - String.length payload)));
  let tmp =
    Filename.temp_file ~temp_dir:t.dir ("." ^ key) ".tmp"
  in
  (* Durable I/O runs through [Fault_io] so chaos specs can hand this
     path ENOSPC and torn writes; the temp file is removed on any
     failure, leaving the previous entry (if any) untouched. *)
  let oc =
    try Fault_io.open_out_bin tmp
    with ex ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise ex
  in
  (try Fault_io.output_string oc payload
   with ex ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise ex);
  close_out oc;
  try Fault_io.rename tmp final
  with ex ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise ex

let store ?max_bytes t e = store_members ?max_bytes t ~key:e.key (members e)
