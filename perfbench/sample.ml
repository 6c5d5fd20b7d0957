(* Order statistics and process probes shared by every workload. *)

module Clock = Accals_telemetry.Clock

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let gmean = function
  | [] -> nan
  | xs ->
    exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* Wall and process CPU seconds of [f ()] (CPU covers every domain). *)
let timed f =
  let w0 = Clock.now () and c0 = Clock.cpu () in
  let v = f () in
  (v, Clock.now () -. w0, Clock.cpu () -. c0)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Current major-heap size, in MiB. Runs sample it after every operation
   and report the median over their repeats of each repeat's largest
   sample: the process-lifetime high-water mark moves with GC pacing across
   domains from run to run, the per-repeat peak much less. *)
let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.heap_words *. word_bytes /. 1048576.0

(* Nearest-rank percentile: the smallest sample with at least [q] of all
   samples at or below it. Stable under a change in sample count where
   interpolation between two populations would not be. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
