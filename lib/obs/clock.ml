(* A CAS loop rather than a mutex: readings race only on the watermark
   word, and the loser of a race simply re-reads — the clock must stay
   callable from every domain without serialising them. *)

let watermark = Atomic.make neg_infinity

let now () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let prev = Atomic.get watermark in
    if t <= prev then prev
    else if Atomic.compare_and_set watermark prev t then t
    else clamp ()
  in
  clamp ()

let resolution = 1e-6
