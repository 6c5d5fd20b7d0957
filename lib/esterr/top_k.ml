(* Bounded selection: the k smallest elements under a total order, returned
   sorted ascending. A size-k binary max-heap makes this O(n log k) instead
   of sorting all n elements, and it never holds more than k of them, so a
   stream of any length is ranked in O(k) space. With a total order
   (callers break ties down to a unique key such as the emission index) the
   result is exactly [List.sort compare items |> take k]. *)

let smallest ~k ~compare iter =
  let heap = ref [||] in
  let size = ref 0 in
  let swap i j =
    let h = !heap in
    let t = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- t
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && compare !heap.(p) !heap.(i) < 0 then begin
      swap p i;
      sift_up p
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !size && compare !heap.(l) !heap.(!m) > 0 then m := l;
    if r < !size && compare !heap.(r) !heap.(!m) > 0 then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  iter (fun x ->
      if !size < k then begin
        if !size = 0 then heap := Array.make k x;
        !heap.(!size) <- x;
        incr size;
        sift_up (!size - 1)
      end
      else if k > 0 && compare x !heap.(0) < 0 then begin
        !heap.(0) <- x;
        sift_down 0
      end);
  let result = Array.sub !heap 0 !size in
  Array.sort compare result;
  Array.to_list result
