(* The one chunk layout of the runtime: [n] tasks cut into at most
   [4 * jobs] contiguous ranges [(lo, len)], sized within one task of each
   other. Four chunks per domain give a domain that finishes early
   something left to take. The layout depends only on [jobs] and [n],
   never on scheduling. *)
let ranges ~jobs n =
  let chunks = max 1 (min n (4 * jobs)) in
  let base = n / chunks and extra = n mod chunks in
  Array.init chunks (fun c ->
      ((c * base) + min c extra, base + if c < extra then 1 else 0))
