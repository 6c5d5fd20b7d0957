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

val iter :
  ?pool:Accals_runtime.Pool.t -> Round_ctx.t -> config -> (Lac.t -> unit) -> unit
(** [iter ctx config f] calls [f] on every candidate LAC for the current
    round, unscored ([delta_error = nan]), without building the round's
    list. Deterministic: with a multi-domain [pool] the per-target
    enumeration fans out across domains into per-target lists, and [f]
    runs on the calling domain over them in topological order — the same
    sequence as the sequential run. *)

val generate :
  ?pool:Accals_runtime.Pool.t -> Round_ctx.t -> config -> Lac.t list
(** [iter] collected into a list: for tests and perfbench replay. *)
