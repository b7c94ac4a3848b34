(* Flattened representation: los.(i)..his.(i) inclusive, sorted by lo,
   pairwise disjoint and non-adjacent (normal form), so membership is one
   binary search and no allocation. *)

type t = { los : int array; his : int array }

let empty = { los = [||]; his = [||] }

let is_empty t = Array.length t.los = 0

let check_pair (lo, hi) =
  if lo < 0 || hi < lo then
    invalid_arg (Printf.sprintf "Intervals: bad range %d..%d" lo hi)

(* The output of one walk: ranges arrive in ascending [lo] order, and one
   that overlaps or touches the last is coalesced into it, so the result
   is in normal form whatever the walk emits.  [lo - 1 <= hi] rather than
   [lo <= hi + 1]: [lo] is never negative, a [hi] may be [max_int]. *)
type out = { olos : int array; ohis : int array; mutable n : int }

let out capacity =
  { olos = Array.make capacity 0; ohis = Array.make capacity 0; n = 0 }

let emit o lo hi =
  let last = o.n - 1 in
  if o.n > 0 && lo - 1 <= o.ohis.(last) then begin
    if hi > o.ohis.(last) then o.ohis.(last) <- hi
  end
  else begin
    o.olos.(o.n) <- lo;
    o.ohis.(o.n) <- hi;
    o.n <- o.n + 1
  end

let finish o =
  if o.n = Array.length o.olos then { los = o.olos; his = o.ohis }
  else { los = Array.sub o.olos 0 o.n; his = Array.sub o.ohis 0 o.n }

let of_ranges pairs =
  List.iter check_pair pairs;
  let o = out (List.length pairs) in
  List.iter (fun (lo, hi) -> emit o lo hi) (List.sort compare pairs);
  finish o

let ranges t =
  Array.to_list (Array.mapi (fun i lo -> (lo, t.his.(i))) t.los)

(* greatest i with los.(i) <= x, then check his.(i); top-level recursion
   rather than refs or an inner closure so the batched decision loop stays
   allocation-free even without flambda *)
(* indices stay within [0, n): [lo]/[hi] start at 0/(n-1) and the bisection
   only narrows, so the unchecked reads are safe *)
let rec mem_from los his x lo hi =
  if lo >= hi then x <= Array.unsafe_get his lo
  else
    let mid = (lo + hi + 1) / 2 in
    if Array.unsafe_get los mid <= x then mem_from los his x mid hi
    else mem_from los his x lo (mid - 1)

let mem t x =
  let n = Array.length t.los in
  if n = 0 || x < t.los.(0) then false
  else mem_from t.los t.his x 0 (n - 1)

(* Normal form is unique (sorted, disjoint, non-adjacent), so structural
   equality of the arrays is set equality. *)
let equal a b = a.los = b.los && a.his = b.his

(* The three walks below each pass once over both operands' ranges in
   [lo] order, so an operation costs O(|a| + |b|) ranges. *)

let union a b =
  let na = Array.length a.los and nb = Array.length b.los in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let o = out (na + nb) in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      if !j = nb || (!i < na && a.los.(!i) <= b.los.(!j)) then begin
        emit o a.los.(!i) a.his.(!i);
        incr i
      end
      else begin
        emit o b.los.(!j) b.his.(!j);
        incr j
      end
    done;
    finish o
  end

(* Each overlap of an [a] range with a [b] range is one output range; the
   operand whose range ends first moves on. *)
let inter a b =
  let na = Array.length a.los and nb = Array.length b.los in
  if na = 0 then a
  else if nb = 0 then b
  else
  let o = out (na + nb) in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let lo = max a.los.(!i) b.los.(!j) and hi = min a.his.(!i) b.his.(!j) in
    if lo <= hi then emit o lo hi;
    if a.his.(!i) < b.his.(!j) then incr i else incr j
  done;
  finish o

(* Each [a] range minus the [b] ranges over it, left to right.  [j] only
   skips [b] ranges that end before the current [a] range starts, so a [b]
   range reaching past one [a] range is seen again by the next. *)
let diff a b =
  let na = Array.length a.los and nb = Array.length b.los in
  if na = 0 || nb = 0 then a
  else begin
    let o = out (na + nb) in
    let j = ref 0 in
    for i = 0 to na - 1 do
      let hi = a.his.(i) in
      let lo = ref a.los.(i) and live = ref true and k = ref 0 in
      while !j < nb && b.his.(!j) < !lo do
        incr j
      done;
      k := !j;
      while !live && !k < nb && b.los.(!k) <= hi do
        if b.los.(!k) > !lo then emit o !lo (b.los.(!k) - 1);
        if b.his.(!k) >= hi then live := false else lo := b.his.(!k) + 1;
        incr k
      done;
      if !live then emit o !lo hi
    done;
    finish o
  end

let subset a b = is_empty (diff a b)

let add t ~lo ~hi = union t (of_ranges [ (lo, hi) ])

let remove t ~lo ~hi = diff t (of_ranges [ (lo, hi) ])

let complement t ~lo ~hi = diff (of_ranges [ (lo, hi) ]) t

let cardinal t =
  Array.to_list t.los
  |> List.mapi (fun i lo -> t.his.(i) - lo + 1)
  |> List.fold_left ( + ) 0

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map
          (fun (lo, hi) ->
            if lo = hi then Printf.sprintf "0x%x" lo
            else Printf.sprintf "0x%x..0x%x" lo hi)
          (ranges t)))
