module Rng = Secpol_sim.Rng

type channel = Over_the_air | Recall

type params = {
  fleet : int;
  ota_mean_days : float;
  recall_mean_days : float;
  recall_no_show : float;
}

let default_params =
  { fleet = 100_000; ota_mean_days = 3.0; recall_mean_days = 90.0; recall_no_show = 0.25 }

type rollout = {
  channel : channel;
  days_to_quantile : float -> float option;
  protected_at : float -> float;
}

let channel_name = function
  | Over_the_air -> "over-the-air"
  | Recall -> "recall"

(* Hoare's selection in Wirth's form, in [Float.compare] order: on return
   [a.(k)] holds the element a full sort would put there, in expected
   O(n).  Equal elements stop both scans, so a fleet whose tail is all
   never-adopters (infinity) still splits evenly. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.(k) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Float.compare a.(!i) pivot < 0 do
        incr i
      done;
      while Float.compare pivot a.(!j) < 0 do
        decr j
      done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

(* [times] is owned: a quantile reorders it in place by selection, and a
   point of the curve is a count, which no reordering changes *)
let curve channel times =
  let fleet = Array.length times in
  let n = float_of_int fleet in
  let days_to_quantile q =
    if q <= 0.0 then Some 0.0
    else if q > 1.0 then None
    else begin
      let idx = int_of_float (ceil (q *. n)) - 1 in
      let idx = max 0 (min (fleet - 1) idx) in
      (* Float.compare orders never-adopters (infinity) at the tail *)
      let t = select times idx in
      if Float.is_finite t then Some t else None
    end
  in
  let protected_at d =
    let count = ref 0 in
    Array.iter (fun t -> if t <= d then incr count) times;
    float_of_int !count /. n
  in
  { channel; days_to_quantile; protected_at }

let of_times channel times =
  if Array.length times = 0 then invalid_arg "Ota.of_times: empty fleet";
  curve channel (Array.copy times)

let simulate rng params channel =
  if params.fleet <= 0 then invalid_arg "Ota.simulate: empty fleet";
  (* per-vehicle days until protected; infinity = never *)
  curve channel
    (Array.init params.fleet (fun _ ->
         match channel with
         | Over_the_air -> Rng.exponential rng params.ota_mean_days
         | Recall ->
             if Rng.chance rng params.recall_no_show then infinity
             else Rng.exponential rng params.recall_mean_days))
