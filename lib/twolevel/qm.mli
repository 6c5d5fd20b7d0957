(** Two-level (SOP) minimization by the Quine-McCluskey procedure with a
    greedy prime-implicant cover. Exact prime generation; the cover is
    essential-primes-first then greedy, which is optimal or near-optimal at
    these sizes (<= 6 variables). *)

type cube = {
  mask : int;  (** care bits *)
  value : int;  (** polarity on care bits; don't-care bits are 0 *)
}

val cube_covers : cube -> int -> bool
(** Does the cube contain the minterm? *)

val cube_literals : cube -> int
(** Number of literals (care bits). *)

val cubes_truth : vars:int -> cube list -> Truth.t
(** ON-set of the SOP. *)

val primes : vars:int -> care:Truth.t -> cube list
(** All prime implicants of [care] over [vars] variables, sorted by
    [compare]. *)

val minimize : vars:int -> on:Truth.t -> ?dc:Truth.t -> unit -> cube list
(** Minimal(ish) SOP cover of [on], free to use [dc] minterms. The result
    covers every [on] minterm, covers nothing outside [on] ∪ [dc], and
    contains only prime implicants. The empty function yields []. *)

type memo
(** A caller-owned cache of {!minimize} results. Not thread-safe: keep one
    per domain, or per unit of parallel work. *)

val memo : unit -> memo

val memo_bytes : memo -> int
(** Estimated heap bytes held by the memo. *)

val minimize_memo : memo -> vars:int -> on:Truth.t -> dc:Truth.t -> cube list
(** [minimize] through [memo]: the same cover, computed once per distinct
    [(vars, on, dc)] after masking. Keys with more than 4 variables are not
    cached. *)

val literal_cost : cube list -> int
(** Total literal count, the classic two-level cost measure. *)
