type stats = {
  mutable tx_ok : int;
  mutable tx_errors : int;
  mutable tx_abandoned : int;
  mutable tx_refused : int;
  mutable rx_delivered : int;
  mutable rx_filtered : int;
  mutable rx_line_errors : int;
}

type rx_result =
  | Deliver of Frame.t
  | Filtered of Frame.t
  | Line_error of Transceiver.line_error

type t = {
  name : string;
  mutable filters : Acceptance.t list;
  errors : Errors.t;
  stats : stats;
}

let create ~name () =
  {
    name;
    filters = [];
    errors = Errors.create ();
    stats =
      {
        tx_ok = 0;
        tx_errors = 0;
        tx_abandoned = 0;
        tx_refused = 0;
        rx_delivered = 0;
        rx_filtered = 0;
        rx_line_errors = 0;
      };
  }

let name t = t.name

let filters t = t.filters

let set_filters t filters = t.filters <- filters

let errors t = t.errors

let stats t = t.stats

let accept t (frame : Frame.t) =
  if Acceptance.accepts t.filters frame.id then begin
    Errors.on_rx_success t.errors;
    t.stats.rx_delivered <- t.stats.rx_delivered + 1;
    true
  end
  else begin
    t.stats.rx_filtered <- t.stats.rx_filtered + 1;
    false
  end

let receive t (rx : Transceiver.rx) =
  match rx with
  | Transceiver.Line_error e ->
      Errors.on_rx_error t.errors;
      t.stats.rx_line_errors <- t.stats.rx_line_errors + 1;
      Line_error e
  | Transceiver.Frame frame ->
      if accept t frame then Deliver frame else Filtered frame

let note_tx_ok t =
  Errors.on_tx_success t.errors;
  t.stats.tx_ok <- t.stats.tx_ok + 1

let note_tx_error t =
  Errors.on_tx_error t.errors;
  t.stats.tx_errors <- t.stats.tx_errors + 1

let note_tx_abandoned t = t.stats.tx_abandoned <- t.stats.tx_abandoned + 1

let note_tx_refused t = t.stats.tx_refused <- t.stats.tx_refused + 1

let note_wire_error t = Errors.on_rx_error t.errors

let pp_stats ppf s =
  Format.fprintf ppf
    "tx ok=%d err=%d abandoned=%d refused=%d; rx delivered=%d filtered=%d line-errors=%d"
    s.tx_ok s.tx_errors s.tx_abandoned s.tx_refused s.rx_delivered s.rx_filtered
    s.rx_line_errors
