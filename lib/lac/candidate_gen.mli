(** Candidate LAC generation.

    For each live internal node the generator proposes:
    - constant-0 / constant-1 replacement,
    - SASIMI-style substitution by a signature-similar existing signal (or
      its negation) drawn from a structural window plus a global
      similarity index,
    - ALSRAC-style resubstitution by a fresh gate over window signals whose
      sampled function is close to the target's: 2-input
      AND/OR/XOR/NAND/NOR/XNOR and 3-input AND/OR/XOR/MUX,
    - cut rewriting: an exact or approximate two-level cover of a small
      cut's function.

    Only LACs with positive estimated area gain survive. The gain of a LAC
    is the area of the target's MFFC minus the area of the installed
    replacement logic (the nodes that die when the target's old cone is
    dereferenced). *)

type config = {
  triples_per_target : int;
      (** max 3-input resubstitution candidates per target; 0 disables
          them *)
  global_wires : int;
      (** max additional SASIMI candidates found by global signature
          matching (outside the structural window) *)
  sops_per_target : int;
      (** max cut-rewriting (SOP) candidates per target; 0 disables the
          cut-based LAC family *)
}

val default_config : config

type memo
(** Run-scoped generator memo: each target's last candidate list, in a
    compact encoding, plus per-node change stamps, incrementally kept cut
    sets and the cut-function covers (one table per domain). With it,
    {!iter} re-emits a target's previous list whenever no node its
    generation reads has changed since, and its TFO-filtered pool and
    global signature matches (recomputed every round, being non-local)
    equal the stored ones, or at least the pool's six signals closest to
    the target do; a target whose MFFC and cuts are unchanged but whose
    list is not regenerates all but its SOP candidates, which are copied;
    every other target is regenerated.
    The emitted stream is identical to a memo-less {!iter}'s on the same
    context. A memo serves one working circuit and one [config]:
    {!memo_refresh} it after every change to the circuit, with the change
    delta of its signature database. *)

val memo : unit -> memo
(** An empty memo: the first {!iter} regenerates every target. *)

val memo_refresh : memo -> Accals_sigdb.Sigdb.delta -> unit
(** Start a new generation after a commit: stamp the nodes the signature
    database's change delta names. *)

val memo_bytes : memo -> int
(** Estimated heap bytes held by the memo. *)

type work = {
  targets_reused : int;  (** targets whose list was re-emitted *)
  targets_rekeyed : int;
      (** of those, targets re-emitted after their ranked prefix matched
          although their frame had changed *)
  targets_regenerated : int;  (** targets generated afresh *)
  sop_sections_reused : int;
      (** of those, targets whose SOP candidates were copied from the memo *)
  cuts_recomputed : int;  (** nodes whose cut set was recomputed *)
}

val memo_work : memo -> work
(** Work counters accumulated over the memo's lifetime. Observation only. *)

val iter :
  ?pool:Accals_runtime.Pool.t ->
  ?memo:memo ->
  Round_ctx.t ->
  config ->
  (Lac.t -> unit) ->
  unit
(** [iter ctx config f] calls [f] on every candidate LAC for the current
    round, unscored ([delta_error = nan]), without building the round's
    list. Deterministic: with a multi-domain [pool] the per-target
    enumeration fans out across domains into per-target lists, and [f]
    runs on the calling domain over them in topological order — the same
    sequence as the sequential run. With a [memo], unchanged targets are
    re-emitted from it and the memo is updated on the calling domain. *)

val minterm_counts :
  products:Accals_bitvec.Bitvec.t array -> Round_ctx.t -> int array -> int array
(** [minterm_counts ~products ctx leaves] counts, for each minterm [m] of
    the cut [leaves] (bit [i] of [m] is leaf [i]'s value), the samples on
    which the leaf signatures take the values of [m]. [products] is
    scratch: at least [Array.length leaves - 2] vectors of the sample
    count. The SOP generator declares the rarest minterms don't-care. *)

val sort_by_count : int array -> int array -> unit
(** [sort_by_count counts a] sorts [a] in place by ascending
    [counts.(a.(i))], leaving ties exactly where
    [Array.sort (fun x y -> Int.compare counts.(x) counts.(y)) a] leaves
    them. The SOP generator orders a cut's minterms with it. *)

val generate :
  ?pool:Accals_runtime.Pool.t -> Round_ctx.t -> config -> Lac.t list
(** [iter] collected into a list: for tests and perfbench replay. *)
