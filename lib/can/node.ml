type gate = { gate_name : string; check : Frame.t -> bool }

type t = {
  name : string;
  bus : Bus.t;
  controller : Controller.t;
  mutable tx_gate : gate option;
  mutable rx_gate : gate option;
  mutable on_receive : (t -> sender:string -> Frame.t -> unit) option;
  mutable received : Frame.t list; (* newest first *)
  mutable received_count : int;
  mutable down : bool; (* crashed: no tx, no rx until restart *)
}

let trace_now t event frame =
  let time = Secpol_sim.Engine.now (Bus.sim t.bus) in
  Trace.record (Bus.trace t.bus) ~time ~node:t.name frame event

(* Receive-side trace entries are attributed to the *sender* (the entry's
   event names the receiver), so traces answer "who injected what". *)
let trace_rx t ~sender event frame =
  let time = Secpol_sim.Engine.now (Bus.sim t.bus) in
  Trace.record (Bus.trace t.bus) ~time ~node:sender frame event

(* The read gate sits between the bus and the controller: a frame it
   blocks is traced and never reaches the controller's filters. *)
let deliver t ~sender frame =
  if t.down then ()
  else
    match t.rx_gate with
    | Some gate when not (gate.check frame) ->
        trace_rx t ~sender (Trace.Rx_blocked (t.name, gate.gate_name)) frame
    | Some _ | None ->
        if Controller.accept t.controller frame then begin
          trace_rx t ~sender (Trace.Rx_delivered t.name) frame;
          t.received <- frame :: t.received;
          t.received_count <- t.received_count + 1;
          match t.on_receive with Some f -> f t ~sender frame | None -> ()
        end
        else trace_rx t ~sender (Trace.Rx_filtered t.name) frame

let create ?(filters = []) ~name bus =
  let controller = Controller.create ~name () in
  Controller.set_filters controller filters;
  let t =
    {
      name;
      bus;
      controller;
      tx_gate = None;
      rx_gate = None;
      on_receive = None;
      received = [];
      received_count = 0;
      down = false;
    }
  in
  Bus.attach bus ~name
    ~deliver:(fun ~sender frame -> deliver t ~sender frame)
    ~on_wire_error:(fun () -> Controller.note_wire_error controller);
  t

let name t = t.name

let bus t = t.bus

let controller t = t.controller

let set_on_receive t f = t.on_receive <- Some f

let set_tx_gate t ~name check = t.tx_gate <- Some { gate_name = name; check }

let set_rx_gate t ~name check = t.rx_gate <- Some { gate_name = name; check }

let clear_gates t =
  t.tx_gate <- None;
  t.rx_gate <- None

let send t ?(on_outcome = fun _ -> ()) frame =
  let refused () =
    Controller.note_tx_refused t.controller;
    trace_now t Trace.Tx_refused frame;
    false
  in
  if t.down then false
  else
  match t.tx_gate with
  | Some gate when not (gate.check frame) -> refused ()
  | Some _ | None ->
      if not (Errors.can_transmit (Controller.errors t.controller)) then refused ()
      else begin
        Bus.transmit t.bus ~sender:t.name frame ~on_outcome:(fun outcome ->
            (match outcome with
            | Bus.Sent -> Controller.note_tx_ok t.controller
            | Bus.Retried _ -> Controller.note_tx_error t.controller
            | Bus.Abandoned -> Controller.note_tx_abandoned t.controller);
            on_outcome outcome);
        true
      end

let received t = List.rev t.received

let received_count t = t.received_count

let last_received t = match t.received with [] -> None | f :: _ -> Some f

let detach t = Bus.detach t.bus t.name

let attached t = List.mem t.name (Bus.stations t.bus)

let reattach t =
  if not (attached t) then
    Bus.attach t.bus ~name:t.name
      ~deliver:(fun ~sender frame -> deliver t ~sender frame)
      ~on_wire_error:(fun () -> Controller.note_wire_error t.controller)

let is_down t = t.down

let set_down t down = t.down <- down

(* Crash: the station disappears from the bus (its queued frames are
   dropped by [Bus.detach]) and refuses all traffic.  Restart: rejoin the
   bus with error counters reset, as a power-cycled controller would. *)
let crash t =
  t.down <- true;
  detach t

let restart t =
  t.down <- false;
  Errors.reset (Controller.errors t.controller);
  reattach t
