type state = Error_active | Error_passive | Bus_off

type t = { mutable tec : int; mutable rec_ : int }

let create () = { tec = 0; rec_ = 0 }

let tec t = t.tec

let rec_ t = t.rec_

let state t =
  if t.tec > 255 then Bus_off
  else if t.tec > 127 || t.rec_ > 127 then Error_passive
  else Error_active

let on_tx_success t = t.tec <- Int.max 0 (t.tec - 1)

let on_tx_error t = if state t <> Bus_off then t.tec <- t.tec + 8

let on_rx_success t = t.rec_ <- Int.max 0 (t.rec_ - 1)

let on_rx_error t = if state t <> Bus_off then t.rec_ <- t.rec_ + 1

let can_transmit t = state t <> Bus_off

let reset t =
  t.tec <- 0;
  t.rec_ <- 0

let state_name = function
  | Error_active -> "error-active"
  | Error_passive -> "error-passive"
  | Bus_off -> "bus-off"

let pp ppf t =
  Format.fprintf ppf "TEC=%d REC=%d (%s)" t.tec t.rec_ (state_name (state t))
