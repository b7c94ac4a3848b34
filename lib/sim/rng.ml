(* The SplitMix64 counter lives in 8 bytes, read and written in place:
   a mutable [int64] field would box a fresh [Int64] on every draw.
   Inside this module the 64-bit arithmetic stays unboxed, so a draw
   that returns an [int] or a [bool] allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: two xor-shift-multiply rounds over a
   Weyl-sequence counter. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix state

let split t = create (bits64 t)

(* written out rather than through [create], which would take the mixed
   counter boxed *)
let keyed seed key =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0
    (mix (Int64.add seed (Int64.mul golden_gamma (Int64.of_int (key + 1)))));
  t

(* The next output cut to an [int], which crosses a call unboxed: its
   low 62 bits, or its top 53 *)
let bits62 t = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL)

let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* redraw until the draw lands below [limit], the last complete block *)
let rec below t limit bound =
  let r = bits62 t in
  if r >= limit then below t limit bound else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection sampling over 62 uniform bits: [r mod bound] alone is biased
     towards small residues whenever [bound] does not divide 2^62, so draws
     landing in the incomplete final block [limit, 2^62) are redrawn.  The
     rejected tail is < bound / 2^62 of the space, so a redraw is
     astronomically rare for simulation-sized bounds and draws below
     [limit] are bit-identical to the pre-rejection stream. *)
  let max62 = 0x3FFFFFFFFFFFFFFF in
  (* 2^62 itself overflows the 63-bit native int, so compute
     rem = 2^62 mod bound as ((2^62 - 1) mod bound + 1) mod bound *)
  let rem = ((max62 mod bound) + 1) mod bound in
  if rem = 0 then bits62 t mod bound
  else below t (max62 - rem + 1 (* = 2^62 - rem *)) bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits scaled into [0,1). *)
  let unit = float_of_int (bits53 t) /. 9007199254740992.0 in
  unit *. bound

let bool t = bits62 t land 1 = 1

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u = 0.0 then epsilon_float else u in
  -. mean *. log u

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
