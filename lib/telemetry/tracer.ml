type ev = {
  ev_name : string;
  ev_cat : string;
  ev_ph : string;  (* "X" or "i" *)
  ev_ts : int64;  (* ns since tracer epoch *)
  ev_dur : int64;  (* ns; 0 for instants *)
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

type t = {
  epoch : int64;
  mutex : Mutex.t;
  mutable events : ev list;  (* newest first *)
  mutable tids : int list;  (* every tid seen, for thread-name metadata *)
}

type span = {
  s_tracer : t;
  s_name : string;
  s_cat : string;
  s_args : (string * Json.t) list;
  s_start : int64;
  s_tid : int;
}

let tid_key = Domain.DLS.new_key (fun () -> 0)
let set_tid tid = Domain.DLS.set tid_key tid
let current_tid () = Domain.DLS.get tid_key

let create () =
  { epoch = Clock.now_ns (); mutex = Mutex.create (); events = []; tids = [ 0 ] }

let push t ev =
  Mutex.lock t.mutex;
  t.events <- ev :: t.events;
  if not (List.mem ev.ev_tid t.tids) then t.tids <- ev.ev_tid :: t.tids;
  Mutex.unlock t.mutex

let begin_span t ?(cat = "") ?(args = []) name =
  {
    s_tracer = t;
    s_name = name;
    s_cat = cat;
    s_args = args;
    s_start = Int64.sub (Clock.now_ns ()) t.epoch;
    s_tid = current_tid ();
  }

let end_span ?(args = []) s =
  let t = s.s_tracer in
  let now = Int64.sub (Clock.now_ns ()) t.epoch in
  push t
    {
      ev_name = s.s_name;
      ev_cat = s.s_cat;
      ev_ph = "X";
      ev_ts = s.s_start;
      ev_dur = Int64.max 0L (Int64.sub now s.s_start);
      ev_tid = s.s_tid;
      ev_args = s.s_args @ args;
    }

let with_span t ?cat ?args name f =
  let s = begin_span t ?cat ?args name in
  Fun.protect ~finally:(fun () -> end_span s) f

let instant t ?(cat = "") ?(args = []) name =
  push t
    {
      ev_name = name;
      ev_cat = cat;
      ev_ph = "i";
      ev_ts = Int64.sub (Clock.now_ns ()) t.epoch;
      ev_dur = 0L;
      ev_tid = current_tid ();
      ev_args = args;
    }

let event_count t =
  Mutex.lock t.mutex;
  let n = List.length t.events in
  Mutex.unlock t.mutex;
  n

let pid = lazy (Unix.getpid ())

let ev_json ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("ph", Json.String ev.ev_ph);
      ("ts", Json.Float (Clock.ns_to_us ev.ev_ts));
      ("pid", Json.Int (Lazy.force pid));
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let base = if ev.ev_cat = "" then base else base @ [ ("cat", Json.String ev.ev_cat) ] in
  let base =
    if ev.ev_ph = "X" then base @ [ ("dur", Json.Float (Clock.ns_to_us ev.ev_dur)) ]
    else base @ [ ("s", Json.String "t") ]
  in
  let base =
    if ev.ev_args = [] then base else base @ [ ("args", Json.Obj ev.ev_args) ]
  in
  Json.Obj base

let thread_name_json tid =
  let name = if tid = 0 then "main" else Printf.sprintf "worker-%d" tid in
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int (Lazy.force pid));
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let to_json t =
  Mutex.lock t.mutex;
  let events = t.events in
  let tids = List.sort compare t.tids in
  Mutex.unlock t.mutex;
  let events =
    List.stable_sort (fun a b -> Int64.compare a.ev_ts b.ev_ts) (List.rev events)
  in
  Json.List (List.map thread_name_json tids @ List.map ev_json events)

let epoch_us t = Clock.ns_to_us t.epoch

let default_thread_name tid =
  if tid = 0 then "main" else Printf.sprintf "worker-%d" tid

let events_json ?(ts_offset_us = 0.0) ?(tid_offset = 0) ?pid:pid_override
    ?thread_name t =
  (* Re-timed / re-laned export for merging this tracer's events into a
     larger timeline (a scheduler's per-job trace): [ts_offset_us] shifts
     relative timestamps onto the host timeline (pass [epoch_us] to get
     absolute monotonic time), [tid_offset] relocates the lanes so they
     do not collide with the host's, and [thread_name] renames them
     (receives the original, un-offset tid). *)
  let name_of = Option.value thread_name ~default:default_thread_name in
  let p = match pid_override with Some p -> p | None -> Lazy.force pid in
  Mutex.lock t.mutex;
  let events = t.events in
  let tids = List.sort compare t.tids in
  Mutex.unlock t.mutex;
  let events =
    List.stable_sort (fun a b -> Int64.compare a.ev_ts b.ev_ts) (List.rev events)
  in
  let meta tid =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int p);
        ("tid", Json.Int (tid + tid_offset));
        ("args", Json.Obj [ ("name", Json.String (name_of tid)) ]);
      ]
  in
  let ev_json ev =
    let base =
      [
        ("name", Json.String ev.ev_name);
        ("ph", Json.String ev.ev_ph);
        ("ts", Json.Float (Clock.ns_to_us ev.ev_ts +. ts_offset_us));
        ("pid", Json.Int p);
        ("tid", Json.Int (ev.ev_tid + tid_offset));
      ]
    in
    let base =
      if ev.ev_cat = "" then base else base @ [ ("cat", Json.String ev.ev_cat) ]
    in
    let base =
      if ev.ev_ph = "X" then
        base @ [ ("dur", Json.Float (Clock.ns_to_us ev.ev_dur)) ]
      else base @ [ ("s", Json.String "t") ]
    in
    if ev.ev_args = [] then Json.Obj base
    else Json.Obj (base @ [ ("args", Json.Obj ev.ev_args) ])
  in
  List.map meta tids @ List.map ev_json events

let write t path = Json.write_file path (to_json t)
