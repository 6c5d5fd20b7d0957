(* Bounded selection: the k smallest keyed items of a stream, returned
   sorted ascending. A size-k binary max-heap makes this O(n log k) instead
   of sorting all n items, and it never holds more than k of them. The key
   is (rank ascending, gain descending, emission index ascending), a total
   order, so the result is exactly a stable sort of the stream by (rank,
   gain) truncated to k. Keys are stored unboxed in parallel arrays, the
   payload in a third; an item that does not beat the heap's root is only
   counted. *)

type 'a t = {
  k : int;
  rank : Float.Array.t;
  gain : Float.Array.t;
  index : int array;
  mutable payload : 'a array;  (* empty until the first item *)
  mutable size : int;
  mutable pushed : int;
}

let create ~k =
  let k = max k 0 in
  {
    k;
    rank = Float.Array.create k;
    gain = Float.Array.create k;
    index = Array.make k 0;
    payload = [||];
    size = 0;
    pushed = 0;
  }

let pushed h = h.pushed

(* Whether key (r, g, i) comes strictly before key (r', g', i'). *)
let[@inline] before (r : float) (g : float) (i : int) r' g' i' =
  r < r' || (r = r' && (g > g' || (g = g' && i < i')))

let[@inline] slot_before h a b =
  before (Float.Array.get h.rank a) (Float.Array.get h.gain a) h.index.(a)
    (Float.Array.get h.rank b) (Float.Array.get h.gain b) h.index.(b)

let move h ~src ~dst =
  Float.Array.set h.rank dst (Float.Array.get h.rank src);
  Float.Array.set h.gain dst (Float.Array.get h.gain src);
  h.index.(dst) <- h.index.(src);
  h.payload.(dst) <- h.payload.(src)

let store h at rank gain index x =
  Float.Array.set h.rank at rank;
  Float.Array.set h.gain at gain;
  h.index.(at) <- index;
  h.payload.(at) <- x

(* The heap is a max-heap on the key: the root is the worst item kept.
   Both sifts move a hole instead of swapping. *)

let add h rank gain index x =
  if Array.length h.payload = 0 then h.payload <- Array.make h.k x;
  let hole = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !hole > 0 do
    let p = (!hole - 1) / 2 in
    if
      before (Float.Array.get h.rank p) (Float.Array.get h.gain p) h.index.(p) rank gain
        index
    then begin
      move h ~src:p ~dst:!hole;
      hole := p
    end
    else continue := false
  done;
  store h !hole rank gain index x

let replace_root h rank gain index x =
  let hole = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= h.size then continue := false
    else begin
      let r = l + 1 in
      let c = if r < h.size && slot_before h l r then r else l in
      if
        before rank gain index (Float.Array.get h.rank c) (Float.Array.get h.gain c)
          h.index.(c)
      then begin
        move h ~src:c ~dst:!hole;
        hole := c
      end
      else continue := false
    end
  done;
  store h !hole rank gain index x

let[@inline] push h ~rank ~gain x =
  let index = h.pushed in
  h.pushed <- index + 1;
  if h.size < h.k then add h rank gain index x
  else if
    h.k > 0
    && before rank gain index (Float.Array.get h.rank 0) (Float.Array.get h.gain 0)
         h.index.(0)
  then replace_root h rank gain index x

let swap h a b =
  let rank = Float.Array.get h.rank a and gain = Float.Array.get h.gain a in
  let index = h.index.(a) and x = h.payload.(a) in
  move h ~src:b ~dst:a;
  Float.Array.set h.rank b rank;
  Float.Array.set h.gain b gain;
  h.index.(b) <- index;
  h.payload.(b) <- x

(* Heap sort in place: each step moves the root, the worst item left, to
   the end of the shrinking heap and sinks the item it displaced from the
   root's place, as [replace_root] does, so the slots end up best first.
   The key is a total order, so this is the one sorted order. The sink is
   written out here, not a call to [replace_root], so that the displaced
   key stays unboxed. Reversing the slots afterwards leaves them worst
   first, which is again a valid max-heap. *)
let sorted h =
  let n = h.size in
  for last = n - 1 downto 1 do
    let rank = Float.Array.get h.rank last and gain = Float.Array.get h.gain last in
    let index = h.index.(last) and x = h.payload.(last) in
    move h ~src:0 ~dst:last;
    let hole = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c = if r < last && slot_before h l r then r else l in
        if
          before rank gain index (Float.Array.get h.rank c) (Float.Array.get h.gain c)
            h.index.(c)
        then begin
          move h ~src:c ~dst:!hole;
          hole := c
        end
        else continue := false
      end
    done;
    Float.Array.set h.rank !hole rank;
    Float.Array.set h.gain !hole gain;
    h.index.(!hole) <- index;
    h.payload.(!hole) <- x
  done;
  let out = Array.init n (fun s -> (Float.Array.get h.rank s, h.payload.(s))) in
  for s = 0 to (n / 2) - 1 do
    swap h s (n - 1 - s)
  done;
  out
