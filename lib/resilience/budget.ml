external statvfs_free_bytes : string -> int64 = "accals_statvfs_free_bytes"
external fd_soft_limit : unit -> int64 = "accals_fd_soft_limit"

module Memory = struct
  type t = {
    limit_bytes : int;
    mutable sources : (string * (unit -> int)) list;
    lock : Mutex.t;
  }

  let create ~limit_bytes = { limit_bytes; sources = []; lock = Mutex.create () }
  let limit_bytes t = t.limit_bytes

  let register_source t ~name f =
    Mutex.lock t.lock;
    t.sources <- (name, f) :: List.remove_assoc name t.sources;
    Mutex.unlock t.lock

  let sample t =
    let heap_bytes =
      (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)
    in
    Mutex.lock t.lock;
    let sources = t.sources in
    Mutex.unlock t.lock;
    List.fold_left
      (fun acc (_, f) -> acc + (try max 0 (f ()) with _ -> 0))
      heap_bytes sources

  type pressure = Nominal | Soft | Hard

  (* Soft pressure at 85% leaves enough slack for one more round of growth
     while the cheap relief (cache drops, Gc.compact) takes effect. *)
  let soft_fraction = 0.85

  let classify t ~bytes =
    if t.limit_bytes <= 0 then Nominal
    else if bytes >= t.limit_bytes then Hard
    else if float_of_int bytes >= soft_fraction *. float_of_int t.limit_bytes
    then Soft
    else Nominal

  let pressure t = classify t ~bytes:(sample t)
end

module Disk = struct
  let free_bytes path =
    match statvfs_free_bytes path with
    | n when n < 0L -> None
    | n when n > Int64.of_int max_int -> Some max_int
    | n -> Some (Int64.to_int n)

  let rec usage_bytes path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc entry -> acc + usage_bytes (Filename.concat path entry))
        0
        (try Sys.readdir path with Sys_error _ -> [||])
    | _ -> 0
    | exception Unix.Unix_error (_, _, _) -> 0

  let has_headroom ~dir ~headroom_bytes =
    headroom_bytes <= 0
    ||
    match free_bytes dir with
    | None -> true
    | Some free -> free >= headroom_bytes

  let rec ensure_dir dir =
    if not (Sys.file_exists dir) then begin
      let parent = Filename.dirname dir in
      if parent <> dir then ensure_dir parent;
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
end

module Fd = struct
  let open_fds () =
    match Sys.readdir "/proc/self/fd" with
    (* The readdir itself holds one fd open; don't count it. *)
    | entries -> Some (max 0 (Array.length entries - 1))
    | exception Sys_error _ -> None

  let limit () =
    match fd_soft_limit () with
    | n when n <= 0L -> None
    | n when n > Int64.of_int max_int -> None
    | n -> Some (Int64.to_int n)

  let should_accept ~reserve =
    match (open_fds (), limit ()) with
    (* [lim - reserve] rather than [used + 1 + reserve]: the subtraction
       cannot overflow for any CLI-supplied reserve. *)
    | Some used, Some lim -> used + 1 <= lim - max 0 reserve
    | _ -> true
end
