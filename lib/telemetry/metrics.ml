type labels = (string * string) list

type counter = {
  c_ints : int Atomic.t;
  c_mutex : Mutex.t;
  mutable c_float : float;
}

type gauge = { g_mutex : Mutex.t; mutable g_value : float }

type histogram = {
  h_bounds : float array;  (* finite upper bounds, ascending *)
  h_counts : int Atomic.t array;  (* length = bounds + 1; last is +Inf *)
  h_mutex : Mutex.t;
  mutable h_sum : float;
}

type instrument = C of counter | G of gauge | H of histogram

type entry = { e_name : string; e_labels : labels; e_inst : instrument }

type t = {
  mutex : Mutex.t;
  table : (string * labels, entry) Hashtbl.t;
  helps : (string, string) Hashtbl.t;  (* family name -> its help text *)
  mutable order : entry list;  (* reverse registration order *)
}

let create () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 32;
    helps = Hashtbl.create 32;
    order = [];
  }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* Prometheus identifier grammar: metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*,
   label names [a-zA-Z_][a-zA-Z0-9_]* (and no colons). A bad name silently
   poisons the whole exposition for every scraper, so reject it at
   registration time where the call site is on the stack. *)
let valid_metric_name name =
  String.length name > 0
  && (match name.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let valid_label_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name
  (* "__"-prefixed label names are reserved for Prometheus internals. *)
  && not (String.length name >= 2 && name.[0] = '_' && name.[1] = '_')

let register t name labels help make =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Metrics: invalid label name %S on metric %s" k name))
    labels;
  Mutex.lock t.mutex;
  (* Prometheus prints one HELP line per family, so every labelled member
     must share it; an empty help fetches without restating it. *)
  (match Hashtbl.find_opt t.helps name with
   | Some h when help <> "" && h <> help ->
     Mutex.unlock t.mutex;
     invalid_arg
       (Printf.sprintf "Metrics: %s registered with help %S, already %S" name
          help h)
   | None when help <> "" -> Hashtbl.add t.helps name help
   | _ -> ());
  let entry =
    match Hashtbl.find_opt t.table (name, labels) with
    | Some e -> e
    | None ->
      let e = { e_name = name; e_labels = labels; e_inst = make () } in
      Hashtbl.add t.table (name, labels) e;
      t.order <- e :: t.order;
      e
  in
  Mutex.unlock t.mutex;
  entry

let counter t ?(help = "") ?(labels = []) name =
  let e =
    register t name labels help (fun () ->
        C { c_ints = Atomic.make 0; c_mutex = Mutex.create (); c_float = 0.0 })
  in
  match e.e_inst with
  | C c -> c
  | inst ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s is registered as a %s" name
         (kind_name inst))

let incr c = Atomic.incr c.c_ints

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters never decrease";
  ignore (Atomic.fetch_and_add c.c_ints n)

let addf c x =
  if not (x >= 0.0) then invalid_arg "Metrics.addf: counters never decrease";
  Mutex.lock c.c_mutex;
  c.c_float <- c.c_float +. x;
  Mutex.unlock c.c_mutex

let counter_value c =
  Mutex.lock c.c_mutex;
  let f = c.c_float in
  Mutex.unlock c.c_mutex;
  float_of_int (Atomic.get c.c_ints) +. f

let gauge t ?(help = "") ?(labels = []) name =
  let e =
    register t name labels help (fun () ->
        G { g_mutex = Mutex.create (); g_value = 0.0 })
  in
  match e.e_inst with
  | G g -> g
  | inst ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %s is registered as a %s" name
         (kind_name inst))

let set g x =
  Mutex.lock g.g_mutex;
  g.g_value <- x;
  Mutex.unlock g.g_mutex

let gauge_value g =
  Mutex.lock g.g_mutex;
  let v = g.g_value in
  Mutex.unlock g.g_mutex;
  v

let histogram t ?(help = "") ?(labels = []) ~buckets name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: at least one bucket bound required";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing")
    buckets;
  let e =
    register t name labels help (fun () ->
        {
          h_bounds = Array.copy buckets;
          h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_mutex = Mutex.create ();
          h_sum = 0.0;
        }
        |> fun h -> H h)
  in
  match e.e_inst with
  | H h -> h
  | inst ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s is registered as a %s" name
         (kind_name inst))

let observe h x =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n then n else if x <= h.h_bounds.(i) then i else bucket (i + 1) in
  Atomic.incr h.h_counts.(bucket 0);
  Mutex.lock h.h_mutex;
  h.h_sum <- h.h_sum +. x;
  Mutex.unlock h.h_mutex

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type value =
  | Counter of float
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      sum : float;
      count : int;
    }

type sample = { name : string; labels : labels; help : string; value : value }

type snapshot = sample list

let freeze_instrument = function
  | C c -> Counter (counter_value c)
  | G g -> Gauge (gauge_value g)
  | H h ->
    let counts = Array.map Atomic.get h.h_counts in
    Mutex.lock h.h_mutex;
    let sum = h.h_sum in
    Mutex.unlock h.h_mutex;
    Histogram
      {
        bounds = Array.copy h.h_bounds;
        counts;
        sum;
        count = Array.fold_left ( + ) 0 counts;
      }

let histogram_value h = freeze_instrument (H h)

let snapshot t =
  Mutex.lock t.mutex;
  let entries =
    List.rev_map
      (fun e ->
        (e, Option.value ~default:"" (Hashtbl.find_opt t.helps e.e_name)))
      t.order
  in
  Mutex.unlock t.mutex;
  List.map
    (fun (e, help) ->
      {
        name = e.e_name;
        labels = e.e_labels;
        help;
        value = freeze_instrument e.e_inst;
      })
    entries

let merge a b = a @ b

let find snap ?(labels = []) name =
  List.find_map
    (fun s -> if s.name = name && s.labels = labels then Some s.value else None)
    snap

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let prom_label_value v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* HELP text uses a smaller escape set than label values: backslash and
   newline only (a raw newline would terminate the comment mid-text). *)
let prom_help_text h =
  let buf = Buffer.create (String.length h + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    h;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_value v)) labels)
    ^ "}"

let value_kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let to_prometheus snap =
  (* Group samples of the same family (name) together, first-occurrence
     order, one HELP/TYPE header per family. *)
  let families =
    List.fold_left
      (fun acc s -> if List.mem s.name acc then acc else s.name :: acc)
      [] snap
    |> List.rev
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun family ->
      let members = List.filter (fun s -> s.name = family) snap in
      let first = List.hd members in
      if first.help <> "" then
        Printf.bprintf buf "# HELP %s %s\n" family (prom_help_text first.help);
      Printf.bprintf buf "# TYPE %s %s\n" family (value_kind first.value);
      List.iter
        (fun s ->
          match s.value with
          | Counter v | Gauge v ->
            Printf.bprintf buf "%s%s %s\n" s.name (prom_labels s.labels)
              (prom_float v)
          | Histogram { bounds; counts; sum; count } ->
            let cumulative = ref 0 in
            Array.iteri
              (fun i c ->
                cumulative := !cumulative + c;
                let le =
                  if i < Array.length bounds then prom_float bounds.(i)
                  else "+Inf"
                in
                Printf.bprintf buf "%s_bucket%s %d\n" s.name
                  (prom_labels (s.labels @ [ ("le", le) ]))
                  !cumulative)
              counts;
            Printf.bprintf buf "%s_sum%s %s\n" s.name (prom_labels s.labels)
              (prom_float sum);
            Printf.bprintf buf "%s_count%s %d\n" s.name (prom_labels s.labels)
              count)
        members)
    families;
  Buffer.contents buf

let to_jsonl snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels) in
      let fields =
        [ ("metric", Json.String s.name); ("labels", labels);
          ("type", Json.String (value_kind s.value)) ]
        @
        match s.value with
        | Counter v | Gauge v -> [ ("value", Json.Float v) ]
        | Histogram { bounds; counts; sum; count } ->
          [
            ("sum", Json.Float sum);
            ("count", Json.Int count);
            ( "buckets",
              Json.List
                (Array.to_list
                   (Array.mapi
                      (fun i c ->
                        let le =
                          if i < Array.length bounds then Json.Float bounds.(i)
                          else Json.String "+Inf"
                        in
                        Json.Obj [ ("le", le); ("count", Json.Int c) ])
                      counts)) );
          ]
      in
      Buffer.add_string buf (Json.to_string (Json.Obj fields));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf
