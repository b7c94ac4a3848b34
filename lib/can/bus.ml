module Binheap = Secpol_sim.Binheap
module Engine = Secpol_sim.Engine
module Rng = Secpol_sim.Rng
module Obs = Secpol_obs

type tx_outcome = Sent | Retried of int | Abandoned

type station = {
  name : string;
  deliver : time:float -> sender:string -> Transceiver.rx -> unit;
  on_wire_error : unit -> unit;
}

type pending = {
  sender : string;
  frame : Frame.t;
  attempts : int;
  seq : int;
  enqueued : float; (* sim time the frame first entered the queue *)
  on_outcome : tx_outcome -> unit;
}

type t = {
  sim : Engine.t;
  bitrate : float;
  mutable corrupt_prob : float;
  max_retries : int;
  rng : Rng.t;
  trace : Trace.t;
  mutable stations : station list;
  queue : pending Binheap.t;
  mutable busy : bool;
  mutable seq : int;
  mutable busy_time : float;
  c_frames : Obs.Counter.t;
  c_retries : Obs.Counter.t;
  c_abandoned : Obs.Counter.t;
  c_wire_errors : Obs.Counter.t;
  tx_latency : Obs.Histogram.t; (* queue-to-delivery, sim milliseconds *)
}

(* Arbitration order: dominant identifier wins; FIFO (by seq) among equal
   ids, which models a node's internal queue order.  A retried frame keeps
   its seq, so it re-enters arbitration at its original FIFO position
   rather than behind frames queued while it was on the wire. *)
let arbitration_order (a : pending) (b : pending) =
  match Identifier.arbitration_compare a.frame.Frame.id b.frame.Frame.id with
  | 0 -> compare a.seq b.seq
  | c -> c

let create ?(corrupt_prob = 0.0) ?(max_retries = 16) ~bitrate sim =
  if bitrate <= 0.0 then invalid_arg "Bus.create: bitrate must be positive";
  if corrupt_prob < 0.0 || corrupt_prob > 1.0 then
    invalid_arg "Bus.create: corrupt_prob outside [0,1]";
  {
    sim;
    bitrate;
    corrupt_prob;
    max_retries;
    rng = Rng.split (Engine.rng sim);
    trace = Trace.create ();
    stations = [];
    queue = Binheap.create ~cmp:arbitration_order ();
    busy = false;
    seq = 0;
    busy_time = 0.0;
    c_frames = Obs.Counter.create ();
    c_retries = Obs.Counter.create ();
    c_abandoned = Obs.Counter.create ();
    c_wire_errors = Obs.Counter.create ();
    (* 10 us first bucket: a minimal classic-CAN frame at 1 Mbit/s is
       ~50 us of wire time, so arbitration queueing shows up as growth
       across buckets rather than saturating the first one *)
    tx_latency = Obs.Histogram.create ~lo:0.01 ~ratio:2.0 ~buckets:32 ();
  }

let sim t = t.sim

let trace t = t.trace

let attach t ~name ~deliver ~on_wire_error =
  if List.exists (fun s -> s.name = name) t.stations then
    invalid_arg (Printf.sprintf "Bus.attach: duplicate station %S" name);
  t.stations <- t.stations @ [ { name; deliver; on_wire_error } ]

(* Detaching a station takes its queued frames out of arbitration: the
   hardware is gone, so nothing can clock them onto the wire.  Each dropped
   frame is accounted as abandoned (traced, counted, outcome reported) so
   [pending]/[frames_sent]/[abandoned] stay consistent across a detach.  A
   frame of the detached station that is already mid-transmission is left
   alone — it is on the wire and completes physically. *)
let detach t name =
  t.stations <- List.filter (fun s -> s.name <> name) t.stations;
  let dropped =
    List.sort
      (fun (a : pending) b -> compare a.seq b.seq)
      (Binheap.drain_if t.queue (fun (p : pending) -> p.sender = name))
  in
  let now = Engine.now t.sim in
  List.iter
    (fun (p : pending) ->
      Obs.Counter.incr t.c_abandoned;
      Trace.record t.trace ~time:now ~node:p.sender p.frame Trace.Tx_abandoned;
      p.on_outcome Abandoned)
    dropped

let corrupt_prob t = t.corrupt_prob

let set_corrupt_prob t p =
  if p < 0.0 || p > 1.0 then
    invalid_arg "Bus.set_corrupt_prob: probability outside [0,1]";
  t.corrupt_prob <- p

let stations t = List.map (fun s -> s.name) t.stations

let pending t = Binheap.length t.queue

let frames_sent t = Obs.Counter.value t.c_frames

let retries t = Obs.Counter.value t.c_retries

let abandoned t = Obs.Counter.value t.c_abandoned

let wire_errors t = Obs.Counter.value t.c_wire_errors

let busy_time t = t.busy_time

let utilisation t =
  let now = Engine.now t.sim in
  if now <= 0.0 then 0.0 else t.busy_time /. now

let tx_latency t = t.tx_latency

let attach_obs ?(prefix = "can.bus") t reg =
  let key suffix = prefix ^ "." ^ suffix in
  Obs.Registry.register_counter reg (key "frames_sent") t.c_frames;
  Obs.Registry.register_counter reg (key "tx_retries") t.c_retries;
  Obs.Registry.register_counter reg (key "tx_abandoned") t.c_abandoned;
  Obs.Registry.register_counter reg (key "wire_errors") t.c_wire_errors;
  Obs.Registry.register_histogram reg (key "tx_latency_ms") t.tx_latency;
  Obs.Registry.register_gauge reg (key "utilisation") (fun () ->
      utilisation t);
  Obs.Registry.register_gauge reg (key "busy_time_s") (fun () -> t.busy_time);
  Obs.Registry.register_gauge reg (key "pending") (fun () ->
      float_of_int (Binheap.length t.queue))

let rec start_transmission t =
  match Binheap.pop t.queue with
  | None -> t.busy <- false
  | Some winner ->
      t.busy <- true;
      let wire = Transceiver.transmit winner.frame in
      let duration = Frame.wire_time wire ~bitrate:t.bitrate in
      Engine.schedule_in t.sim ~delay:duration (fun sim ->
          t.busy_time <- t.busy_time +. duration;
          let now = Engine.now sim in
          let corrupted = Rng.chance t.rng t.corrupt_prob in
          if corrupted then begin
            Obs.Counter.incr t.c_wire_errors;
            Trace.record t.trace ~time:now ~node:winner.sender winner.frame
              Trace.Tx_error;
            List.iter
              (fun s -> if s.name <> winner.sender then s.on_wire_error ())
              t.stations;
            if winner.attempts + 1 > t.max_retries then begin
              Obs.Counter.incr t.c_abandoned;
              Trace.record t.trace ~time:now ~node:winner.sender winner.frame
                Trace.Tx_abandoned;
              winner.on_outcome Abandoned
            end
            else begin
              Obs.Counter.incr t.c_retries;
              winner.on_outcome (Retried (winner.attempts + 1));
              Binheap.push t.queue { winner with attempts = winner.attempts + 1 }
            end
          end
          else begin
            Obs.Counter.incr t.c_frames;
            Obs.Histogram.observe t.tx_latency
              ((now -. winner.enqueued) *. 1e3);
            Trace.record t.trace ~time:now ~node:winner.sender winner.frame
              Trace.Tx_ok;
            (* every station samples the same uncorrupted bits, so one
               decode serves them all *)
            let rx = Transceiver.receive wire in
            List.iter
              (fun s ->
                if s.name <> winner.sender then
                  s.deliver ~time:now ~sender:winner.sender rx)
              t.stations;
            winner.on_outcome Sent
          end;
          start_transmission t)

let transmit t ~sender ?(on_outcome = fun _ -> ()) frame =
  let p =
    {
      sender;
      frame;
      attempts = 0;
      seq = t.seq;
      enqueued = Engine.now t.sim;
      on_outcome;
    }
  in
  t.seq <- t.seq + 1;
  Binheap.push t.queue p;
  if not t.busy then start_transmission t
