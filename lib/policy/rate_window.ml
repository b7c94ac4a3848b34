type t = {
  count : int;
  window_s : float;
  mutable ring : float array;
      (* the live grants from [head]; expiry only moves [head], so the
         slot before the first free one keeps the newest grant ever
         recorded, which a regressed clock is clamped to *)
  mutable head : int;
  mutable live : int;
}

let create ~count ~window_ms =
  if count < 0 then invalid_arg "Rate_window.create: negative count";
  if window_ms <= 0 then
    invalid_arg "Rate_window.create: window must be positive";
  let window_s = float_of_int window_ms /. 1000.0 in
  { count; window_s; ring = [||]; head = 0; live = 0 }

let of_rate (r : Ast.rate) = create ~count:r.count ~window_ms:r.window_ms

(* A grant at [g] counts against the budget up to, but excluding, the
   instant exactly one window later.  Grants are recorded in
   non-decreasing time order ([admit] clamps), so expiry only advances
   the head. *)
let prune t ~now =
  let horizon = now -. t.window_s in
  let cap = Array.length t.ring in
  while t.live > 0 && Array.unsafe_get t.ring t.head <= horizon do
    t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
    t.live <- t.live - 1
  done

(* Only a full ring grows: its grants move, oldest first, to the front of
   one twice as large (at most [count]).  Unused slots hold
   [neg_infinity], so the first grant of a fresh ring sees no newest.
   The first ring is a two-slot literal, allocated inline rather than by
   a C call: a fleet vehicle's lock budget never needs another. *)
let grow t =
  let cap = Array.length t.ring in
  if cap = 0 then t.ring <- [| neg_infinity; neg_infinity |]
  else begin
    let ring = Array.make (min t.count (2 * cap)) neg_infinity in
    Array.blit t.ring t.head ring 0 (cap - t.head);
    Array.blit t.ring 0 ring (cap - t.head) t.head;
    t.ring <- ring;
    t.head <- 0
  end

let admit t ~now =
  prune t ~now;
  if t.live >= t.count then false
  else begin
    if t.live = Array.length t.ring then grow t;
    let cap = Array.length t.ring in
    let tail = t.head + t.live in
    let tail = if tail >= cap then tail - cap else tail in
    (* a regressed clock is stamped with the newest grant, in the slot
       before [tail], so the ring stays sorted for [prune] *)
    let newest =
      Array.unsafe_get t.ring (if tail = 0 then cap - 1 else tail - 1)
    in
    Array.unsafe_set t.ring tail (if now > newest then now else newest);
    t.live <- t.live + 1;
    true
  end

let admit_rule budgets (r : Ir.rule) subject ~now =
  match r.rate with
  | None -> true
  | Some rate -> (
      let key = (r.idx, subject) in
      match Hashtbl.find_opt budgets key with
      | Some w -> admit w ~now
      | None ->
          let w = of_rate rate in
          Hashtbl.replace budgets key w;
          admit w ~now)

let in_window t ~now =
  prune t ~now;
  t.live

let reset t =
  t.ring <- [||];
  t.head <- 0;
  t.live <- 0
