(** Statistical error metrics between a golden and an approximate circuit.

    All metrics are computed over a common set of simulation patterns (the
    paper samples uniformly distributed inputs). Outputs are interpreted as
    an unsigned binary number, least-significant output first, for the
    distance metrics.

    - ER: probability that any output bit differs.
    - NMED: mean error distance normalized by the maximum output value.
    - MRED: mean of |ED| / max(1, golden value).
    - MED and WCE are provided as extras for library users. *)

open Accals_bitvec

type kind =
  | Error_rate
  | Nmed
  | Mred
  | Med  (** unnormalized mean error distance *)
  | Wce  (** worst observed error distance on the sample set *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val error_rate : golden:Bitvec.t array -> approx:Bitvec.t array -> float

val med : golden:Bitvec.t array -> approx:Bitvec.t array -> float
(** Mean error distance (unnormalized). *)

val nmed : golden:Bitvec.t array -> approx:Bitvec.t array -> float

val mred : golden:Bitvec.t array -> approx:Bitvec.t array -> float

val worst_case_error : golden:Bitvec.t array -> approx:Bitvec.t array -> float
(** Maximum observed error distance over the sample set. *)

val measure : kind -> golden:Bitvec.t array -> approx:Bitvec.t array -> float
(** Dispatch on [kind]. The two signature arrays must have equal lengths
    (same output count) and equal per-signature bit lengths (same pattern
    count). Output count must be at most 60 for the distance metrics. *)

val output_value : Bitvec.t array -> pattern:int -> int
(** Unsigned integer value of the outputs on one pattern (output 0 is the
    least significant bit). *)

(** {1 Prepared measurement}

    When one golden circuit is compared against many approximate candidates
    (the estimator's inner loop), preprocessing the golden signatures once
    amortizes the per-sample value extraction. *)

type prepared

val prepare : kind -> golden:Bitvec.t array -> prepared

val measure_prepared : prepared -> approx:Bitvec.t array -> float
(** Same value as {!measure} with the prepared kind and golden outputs.
    Defined as {!select_total} of {!terms} with an empty [diff], so the
    two agree bit for bit. *)

(** {1 Per-sample error terms}

    Every metric folds one term per sample in sample order. When each
    sample's outputs come from one of two known circuits — the current one,
    or the one with a single node complemented — the metric of any per-sample
    mix of the two is a selection over their terms, with no output
    extraction. The estimator scores all LACs of one target this way. *)

type terms =
  | Wrong of Bitvec.t  (** ER: the samples on which any output differs *)
  | Distance of float array
      (** NMED, MRED, MED, WCE: each sample's error distance (MRED: divided
          by [max 1 golden]) *)

val terms : prepared -> approx:Bitvec.t array -> terms
(** Freshly allocated terms of [approx] against the prepared golden. *)

val terms_into : prepared -> approx:Bitvec.t array -> terms -> unit
(** Overwrite a buffer from {!terms} of the same prepared kind. *)

val select_total :
  prepared -> diff:Bitvec.t -> current:terms -> flipped:terms -> float
(** The metric of the outputs that equal [flipped]'s on the samples set in
    [diff] and [current]'s elsewhere. Bit-identical to {!measure_prepared}
    of those mixed outputs. *)
