(** Gate operators for the Boolean network.

    [And]/[Or]/[Nand]/[Nor]/[Xor]/[Xnor] are n-ary (arity >= 2); [Xor] and
    [Xnor] compute parity. [Mux] takes fanins [sel; a; b] and returns [a]
    when [sel] is true, else [b]. [Buf] is a zero-cost alias used when a LAC
    replaces a node by an existing signal. *)

type op =
  | Const of bool
  | Input
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux

val arity_ok : op -> int -> bool
(** [arity_ok op k] is true when a gate with operator [op] may have [k]
    fanins. *)

val eval : op -> bool array -> bool
(** Evaluate the operator on concrete fanin values. Raises
    [Invalid_argument] on an arity violation or on [Input]. *)

val to_string : op -> string

val equal : op -> op -> bool

val tag : op -> int
(** A distinct small int per operator ([Const false] is 0, [Mux] 11): the
    operator's code in {!Network.digest}, and a hash key for it. *)
