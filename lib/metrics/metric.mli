(** Statistical error metrics between a golden and an approximate circuit.

    All metrics are computed over a common set of simulation patterns (the
    paper samples uniformly distributed inputs). Outputs are interpreted as
    an unsigned binary number, least-significant output first, for the
    distance metrics.

    - ER: probability that any output bit differs.
    - NMED: mean error distance normalized by the maximum output value.
    - MRED: mean of |ED| / max(1, golden value).
    - MED and WCE are provided as extras for library users.

    There is one implementation of each metric: the golden outputs are
    {!prepare}d once, the approximate outputs become one error term per
    sample ({!terms}), and the metric is the fold of those terms in sample
    order, normalized ({!total}). {!measure} is that pipeline in one call;
    the estimator's {!select_total} and the exhaustive checker's per-chunk
    {!sum}s fold the same terms. *)

open Accals_bitvec

type kind =
  | Error_rate
  | Nmed
  | Mred
  | Med  (** unnormalized mean error distance *)
  | Wce  (** worst observed error distance on the sample set *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val measure : kind -> golden:Bitvec.t array -> approx:Bitvec.t array -> float
(** [measure kind ~golden ~approx] is
    [measure_prepared (prepare kind ~golden) ~approx]. The two signature
    arrays must have equal lengths (same output count) and equal
    per-signature bit lengths (same pattern count). Output count must be at
    most 60 for the distance metrics. *)

(** {1 Prepared measurement}

    When one golden circuit is compared against many approximate circuits
    (the estimator's inner loop, every evaluation of a run), preparing the
    golden signatures once amortizes the per-sample value extraction. *)

type prepared

val prepare : kind -> golden:Bitvec.t array -> prepared

val measure_prepared : prepared -> approx:Bitvec.t array -> float
(** The metric of [approx] against the prepared golden: {!total} of
    {!terms}. *)

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

val wrong_into : prepared -> approx:Bitvec.t array -> Bitvec.t -> unit
(** Overwrite a buffer with the samples on which any output of [approx]
    differs from the prepared golden, whatever the prepared kind. Under ER
    this is {!terms_into}. *)

val sample_values_into : Bitvec.t array -> int array -> unit
(** Overwrite the array with the unsigned value of the outputs (output 0
    least significant) on each of its samples: at most 60 outputs, one
    entry per signature bit. *)

val distance_terms_into :
  kind -> golden:int array -> approx:int array -> float array -> unit
(** Overwrite [Distance] terms of a distance [kind] from both circuits'
    {!sample_values_into}, one per golden value: what {!terms_into} makes
    after extracting them. A caller that needs several distance metrics of
    one pair extracts the values once. *)

val sum : kind -> terms -> float
(** The fold of [terms] in sample order, from [0.0]: a count (ER), a running
    maximum (WCE) or a sum. [terms] must be [kind]'s: [Wrong] for ER,
    [Distance] otherwise. *)

val normalize : kind -> outputs:int -> samples:int -> float -> float
(** The metric of [samples] samples over [outputs] outputs from their
    {!sum}: its mean, over [2^outputs - 1] for NMED, itself for WCE. *)

val total : prepared -> terms -> float
(** {!normalize} of the {!sum} of [terms]: {!select_total} with an empty
    [diff]. *)

val select_total :
  prepared -> diff:Bitvec.t -> current:terms -> flipped:terms -> float
(** The metric of the outputs that equal [flipped]'s on the samples set in
    [diff] and [current]'s elsewhere. Bit-identical to {!measure_prepared}
    of those mixed outputs. *)
