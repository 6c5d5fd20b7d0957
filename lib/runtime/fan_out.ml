(* All result assembly is positional: task [i] writes slot [i] (or the slots
   of chunk [i]), so the merged output never depends on scheduling. *)

module Fault = Accals_resilience.Fault

exception
  Runtime_failure of {
    batch : int;
    attempts : int;
    failed : (int * string) list;
  }

let () =
  Printexc.register_printer (function
    | Runtime_failure { batch; attempts; failed } ->
      Some
        (Printf.sprintf
           "Runtime_failure (batch %d: %d task%s still failing after %d \
            attempts; first: task %s)"
           batch (List.length failed)
           (if List.length failed = 1 then "" else "s")
           attempts
           (match failed with
            | (i, msg) :: _ -> Printf.sprintf "%d raised %s" i msg
            | [] -> "?"))
    | _ -> None)

let max_attempts = 3

(* Run [task 0 .. task (count-1)] on the pool with bounded retry of failed
   indices. Each attempt resubmits only the still-failing indices, in
   ascending index order; because every result lands by its original index
   and each index's computation is pure, a retried batch merges into output
   bit-identical to a failure-free run. The fault-injection hook wraps every
   attempt under the same logical batch serial so an armed Fault spec
   selects the same (batch, index) units no matter how work is scheduled. *)
let submit ?label pool ~count task =
  if count > 0 then begin
    let batch = Fault.fresh_batch () in
    let attempt_task attempt i =
      Fault.check ~batch ~index:i ~attempt;
      task i
    in
    let rec go attempt indices =
      (* [indices = None] is the full range, [Some arr] a failed subset in
         ascending order. *)
      let failures =
        match indices with
        | None -> Pool.try_run ?label pool ~count (attempt_task attempt)
        | Some arr ->
          Pool.try_run ?label pool ~count:(Array.length arr) (fun k ->
              attempt_task attempt arr.(k))
          |> List.map (fun (f : Pool.failure) -> { f with Pool.index = arr.(f.Pool.index) })
      in
      match failures with
      | [] -> ()
      | failures when attempt + 1 >= max_attempts ->
        raise
          (Runtime_failure
             {
               batch;
               attempts = attempt + 1;
               failed =
                 List.map
                   (fun (f : Pool.failure) ->
                     (f.Pool.index, Printexc.to_string f.Pool.exn))
                   failures;
             })
      | failures ->
        Accals_telemetry.Telemetry.instant ~cat:"pool"
          ~args:
            [
              ("batch", Accals_telemetry.Json.Int batch);
              ("attempt", Accals_telemetry.Json.Int (attempt + 1));
              ("failed", Accals_telemetry.Json.Int (List.length failures));
            ]
          "fan_out.retry";
        go (attempt + 1)
          (Some (Array.of_list (List.map (fun (f : Pool.failure) -> f.Pool.index) failures)))
    in
    go 0 None
  end

let map_array ?label pool ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    submit ?label pool ~count:n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map (function Some r -> r | None -> assert false) results
  end

let map_list ?label pool ~f items =
  Array.to_list (map_array ?label pool ~f (Array.of_list items))

let map_array_with ?label pool ~state ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let ranges = Chunk.ranges ~jobs:(Pool.jobs pool) n in
    submit ?label pool ~count:(Array.length ranges) (fun c ->
        let lo, len = ranges.(c) in
        let s = state () in
        for i = lo to lo + len - 1 do
          results.(i) <- Some (f s arr.(i))
        done);
    Array.map (function Some r -> r | None -> assert false) results
  end

let map_list_with ?label pool ~state ~f items =
  Array.to_list (map_array_with ?label pool ~state ~f (Array.of_list items))

let map_reduce ?label pool ~n ~map ~merge ~init =
  if n = 0 then init
  else begin
    let results = Array.make n None in
    submit ?label pool ~count:n (fun i -> results.(i) <- Some (map i));
    Array.fold_left
      (fun acc r -> match r with Some r -> merge acc r | None -> assert false)
      init results
  end

(* Overlapping fork/join. No fault-injection hook and no retry: a forked
   side computation is for pure compute the submitter wants to overlap
   with its own work, and a failure simply re-raises at [join]. *)
let fork ?label pool ~count task = Pool.fork ?label pool ~count task

let join pool ticket =
  match Pool.await pool ticket with
  | [] -> ()
  | f :: _ -> Printexc.raise_with_backtrace f.Pool.exn f.Pool.backtrace
