let default_reservoir = 4096

type t = {
  capacity : int;
  mutable count : int; (* finite observations *)
  mutable nan_count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
  reservoir : float array;
  mutable filled : int;
  mutable seed : int64; (* deterministic replacement stream *)
  mutable sorted : float array option; (* cache invalidated by add *)
}

let create ?(reservoir = default_reservoir) () =
  if reservoir <= 0 then invalid_arg "Stats.create: reservoir must be positive";
  {
    capacity = reservoir;
    count = 0;
    nan_count = 0;
    mean = 0.0;
    m2 = 0.0;
    total = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    reservoir = Array.make reservoir 0.0;
    filled = 0;
    seed = 0x51700F1EL;
    sorted = None;
  }

(* splitmix64 step: a fixed, instance-local stream so runs replay exactly. *)
let rand_below t n =
  t.seed <- Int64.add t.seed 0x9E3779B97F4A7C15L;
  let z = t.seed in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int n))

let add t x =
  if Float.is_nan x then t.nan_count <- t.nan_count + 1
  else begin
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    (* Algorithm R: below capacity keep everything (quantiles stay exact);
       past it each observation replaces a random slot with probability
       capacity/count. *)
    if t.filled < t.capacity then begin
      t.reservoir.(t.filled) <- x;
      t.filled <- t.filled + 1;
      t.sorted <- None
    end
    else
      let j = rand_below t t.count in
      if j < t.capacity then begin
        t.reservoir.(j) <- x;
        t.sorted <- None
      end
  end

let count t = t.count

let nan_count t = t.nan_count

let total t = t.total

let mean t = if t.count = 0 then 0.0 else t.mean

let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let min t =
  if t.count = 0 then invalid_arg "Stats.min: empty sample";
  t.min_v

let max t =
  if t.count = 0 then invalid_arg "Stats.max: empty sample";
  t.max_v

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub t.reservoir 0 t.filled in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

let percentile t p =
  if t.count = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  (* Extrema are tracked exactly even when the reservoir has subsampled. *)
  if p = 0.0 then t.min_v
  else if p = 100.0 then t.max_v
  else
    let a = sorted t in
    let n = Array.length a in
    (* nearest-rank: smallest index whose rank covers p percent *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
    a.(idx)

let median t = percentile t 50.0

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p99=%.3f max=%.3f"
      t.count (mean t) (stddev t) t.min_v (median t) (percentile t 99.0) t.max_v
