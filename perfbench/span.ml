(* Benchmark-side tracing: a span around each call the benchmark makes into a
   library layer. Spans live in memory and are written out when the run
   ends. A span's self time is its duration minus what its child spans
   cover; allocation is attributed the same way from [Gc.quick_stat]
   minor-word deltas. *)

module Clock = Accals_telemetry.Clock
module Json = Accals_telemetry.Json

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
  minor_words : float;
}

type t = {
  mutable next : int;
  mutable stack : int list;
  mutable finished : span list;
}

let create () = { next = 0; stack = []; finished = [] }

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with [] -> None | p :: _ -> Some p in
  t.stack <- id :: t.stack;
  let w0 = minor_words () in
  let start = Clock.now () in
  Fun.protect f ~finally:(fun () ->
      let stop = Clock.now () in
      t.stack <- List.tl t.stack;
      t.finished <-
        { id; name; parent; start; stop; minor_words = minor_words () -. w0 }
        :: t.finished)

type total = {
  calls : int;
  total_s : float;
  self_s : float;
  self_minor_words : float;
}

(* Per-name totals over every finished span. *)
let totals t =
  let child_s = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          let add tbl v =
            Hashtbl.replace tbl p (v +. Option.value (Hashtbl.find_opt tbl p) ~default:0.0)
          in
          add child_s (s.stop -. s.start);
          add child_words s.minor_words)
        s.parent)
    t.finished;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let get tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0.0 in
      let d = s.stop -. s.start in
      let prev =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0; self_minor_words = 0.0 }
      in
      Hashtbl.replace acc s.name
        {
          calls = prev.calls + 1;
          total_s = prev.total_s +. d;
          self_s = prev.self_s +. d -. get child_s;
          self_minor_words =
            prev.self_minor_words +. s.minor_words -. get child_words;
        })
    t.finished;
  acc

let total t name =
  Option.value (Hashtbl.find_opt (totals t) name)
    ~default:{ calls = 0; total_s = 0.0; self_s = 0.0; self_minor_words = 0.0 }

let to_json t =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
             ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
             ("minor_words", Json.Float s.minor_words);
           ])
       t.finished)
