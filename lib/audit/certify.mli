(** Certified error reports: re-measure the result circuit with an
    independent PRNG stream (or exhaustively) before reporting it.

    The synthesis loop steers by errors measured on its own sample set; a
    report is only {e certified} once an independent measurement — fresh
    random vectors from a stream the loop never touched, or the full input
    space when the width permits — confirms the error constraint. When the
    independent measurement rejects a circuit, {!certify_with_rollback}
    walks back through previously feasible circuits (newest first) until
    one passes, rather than emitting a violating result. *)

open Accals_network

type method_ =
  | Exhaustive of int  (** exact, over this many input vectors *)
  | Sampled of int  (** independent random stream of this many vectors *)

type outcome = {
  measured : float;  (** the independent measurement of the emitted circuit *)
  method_ : method_;
  bound : float;  (** the error constraint it was checked against *)
  certified : bool;  (** [measured <= bound] *)
  rollback_steps : int;  (** candidates rejected before this one *)
}

val method_to_string : method_ -> string

val independent_seed : int -> int
(** Derive the certification PRNG seed from the run seed; disjoint from
    the pattern and engine streams by construction. *)

val measure :
  golden:Network.t ->
  approx:Network.t ->
  metric:Accals_metrics.Metric.kind ->
  seed:int ->
  samples:int ->
  float * method_
(** Independent error of [approx] against [golden]: exhaustive up to
    {!Exhaustive.max_inputs} (24) inputs, whatever limit steered the run,
    otherwise sampled on [samples] fresh vectors. *)

val certify_with_rollback :
  measure:(Network.t -> float * method_) ->
  bound:float ->
  candidates:(unit -> Network.t * float) list ->
  on_violation:(step:int -> measured:float -> unit) ->
  outcome * Network.t * float
(** Try each candidate (a thunk producing the circuit and its
    loop-sampled error), newest first, until one measures within [bound];
    [on_violation] fires for each rejection. The caller puts its ultimate
    fallback (e.g. the exact original circuit) last; if even that fails the
    last candidate is returned with [certified = false]. Returns the
    outcome, the accepted circuit and its loop-sampled error. *)
