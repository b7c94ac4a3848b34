(* A plain mutable binary min-heap.  The backing array holds [option]s so
   popped slots can be cleared to [None] — a heap that shrinks after a
   burst must not pin the burst's elements against the GC. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ?(capacity = 16) ~cmp () =
  { cmp; data = Array.make (max capacity 1) None; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let get t i =
  match t.data.(i) with Some v -> v | None -> assert false

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (get t i) (get t parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp (get t l) (get t !smallest) < 0 then smallest := l;
  if r < t.size && t.cmp (get t r) (get t !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t v =
  if t.size = Array.length t.data then begin
    let bigger = Array.make (2 * t.size) None in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end;
  t.data.(t.size) <- Some v;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else t.data.(0)

(* returns the root's own [Some] cell, so a pop allocates nothing *)
let pop t =
  if t.size = 0 then None
  else begin
    let root = t.data.(0) in
    t.size <- t.size - 1;
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    root
  end

let clear t =
  Array.fill t.data 0 t.size None;
  t.size <- 0

(* Heapify bottom-up: O(n), versus O(n log n) for repeated pushes. *)
let rebuild t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let drain_if t pred =
  let dropped = ref [] in
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let v = get t i in
    if pred v then dropped := v :: !dropped
    else begin
      t.data.(!kept) <- Some v;
      incr kept
    end
  done;
  for i = !kept to t.size - 1 do
    t.data.(i) <- None
  done;
  t.size <- !kept;
  rebuild t;
  !dropped
