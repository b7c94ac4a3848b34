module Obs = Secpol_obs
module Engine = Secpol_sim.Engine

type direction = [ `A_to_b | `B_to_a ]

(* One direction's accounting.  Keeping the two directions separate is what
   makes a one-sided event — a partitioned or babbling destination shedding
   every forward towards it while the reverse path stays healthy — visible
   in telemetry instead of averaged away in an aggregate. *)
type side = {
  forwarded : Obs.Counter.t;
  dropped : Obs.Counter.t;
  shed : Obs.Counter.t;
  retries : Obs.Counter.t;
  mutable predicate : Frame.t -> bool;
}

type t = {
  name : string;
  a : Bus.t;
  b : Bus.t;
  max_in_flight : int;
  retry_backoff : float;
  max_retries : int;
  forward_timeout : float;
  mutable in_flight : int;
  ab : side;
  ba : side;
  mutable attached : bool;
}

let side_create predicate =
  {
    forwarded = Obs.Counter.create ();
    dropped = Obs.Counter.create ();
    shed = Obs.Counter.create ();
    retries = Obs.Counter.create ();
    predicate;
  }

let side_of t = function `A_to_b -> t.ab | `B_to_a -> t.ba

(* One forwarding attempt.  The bus reports the frame's final fate through
   [on_outcome]; on [Abandoned] (the destination segment is saturated or
   storming with errors) the gateway retries with exponential backoff until
   its retry budget or the forwarding deadline runs out, then sheds the
   frame.  Bounded retries + a deadline are what keep a partitioned or
   jammed segment from queueing the gateway's memory without limit. *)
let rec submit t ~dst ~side ~attempt ~deadline frame =
  Bus.transmit dst ~sender:t.name frame ~on_outcome:(function
    | Bus.Sent ->
        t.in_flight <- t.in_flight - 1;
        Obs.Counter.incr side.forwarded
    | Bus.Retried _ -> (* bus-level retransmission; final fate still due *) ()
    | Bus.Abandoned ->
        let sim = Bus.sim dst in
        let backoff =
          t.retry_backoff *. Float.of_int (1 lsl Stdlib.min attempt 16)
        in
        if attempt < t.max_retries && Engine.now sim +. backoff <= deadline
        then begin
          Obs.Counter.incr side.retries;
          Engine.schedule_in sim ~delay:backoff (fun sim ->
              if Engine.now sim <= deadline then
                submit t ~dst ~side ~attempt:(attempt + 1) ~deadline frame
              else begin
                t.in_flight <- t.in_flight - 1;
                Obs.Counter.incr side.shed
              end)
        end
        else begin
          t.in_flight <- t.in_flight - 1;
          Obs.Counter.incr side.shed
        end)

let bridge t ~dst ~side frame =
  if not (side.predicate frame) then Obs.Counter.incr side.dropped
  else if t.in_flight >= t.max_in_flight then
    (* shed at admission: the gateway is already carrying its limit, so
       new load is dropped instead of queued *)
    Obs.Counter.incr side.shed
  else begin
    t.in_flight <- t.in_flight + 1;
    let deadline = Engine.now (Bus.sim dst) +. t.forward_timeout in
    submit t ~dst ~side ~attempt:0 ~deadline frame
  end

let attach_buses t =
  Bus.attach t.a ~name:t.name
    ~deliver:(fun ~sender:_ frame -> bridge t ~dst:t.b ~side:t.ab frame)
    ~on_wire_error:(fun () -> ());
  (try
     Bus.attach t.b ~name:t.name
       ~deliver:(fun ~sender:_ frame -> bridge t ~dst:t.a ~side:t.ba frame)
       ~on_wire_error:(fun () -> ())
   with Invalid_argument _ as e ->
     Bus.detach t.a t.name;
     raise e);
  t.attached <- true

let connect ?(max_in_flight = 64) ?(retry_backoff = 0.002) ?(max_retries = 3)
    ?(forward_timeout = 0.25) ~name ~a ~b ~forward_a_to_b ~forward_b_to_a () =
  if a == b then invalid_arg "Gateway.connect: both sides are the same bus";
  if max_in_flight <= 0 then
    invalid_arg "Gateway.connect: max_in_flight must be positive";
  if retry_backoff <= 0.0 then
    invalid_arg "Gateway.connect: retry_backoff must be positive";
  if max_retries < 0 then
    invalid_arg "Gateway.connect: max_retries must be non-negative";
  if forward_timeout <= 0.0 then
    invalid_arg "Gateway.connect: forward_timeout must be positive";
  let t =
    {
      name;
      a;
      b;
      max_in_flight;
      retry_backoff;
      max_retries;
      forward_timeout;
      in_flight = 0;
      ab = side_create forward_a_to_b;
      ba = side_create forward_b_to_a;
      attached = false;
    }
  in
  attach_buses t;
  t

let name t = t.name

let forwarded_dir t dir = Obs.Counter.value (side_of t dir).forwarded

let dropped_dir t dir = Obs.Counter.value (side_of t dir).dropped

let shed_dir t dir = Obs.Counter.value (side_of t dir).shed

let retries_dir t dir = Obs.Counter.value (side_of t dir).retries

let forwarded t = forwarded_dir t `A_to_b + forwarded_dir t `B_to_a

let dropped t = dropped_dir t `A_to_b + dropped_dir t `B_to_a

let shed t = shed_dir t `A_to_b + shed_dir t `B_to_a

let retries t = retries_dir t `A_to_b + retries_dir t `B_to_a

let in_flight t = t.in_flight

let connected t = t.attached

let set_predicates t ~forward_a_to_b ~forward_b_to_a =
  t.ab.predicate <- forward_a_to_b;
  t.ba.predicate <- forward_b_to_a

let attach_obs t reg =
  let register key c =
    Obs.Registry.register_counter reg
      (Printf.sprintf "can.gateway.%s.%s" t.name key)
      c
  in
  let register_side label (s : side) =
    register (label ^ ".forwarded") s.forwarded;
    register (label ^ ".dropped") s.dropped;
    register (label ^ ".shed") s.shed;
    register (label ^ ".retries") s.retries
  in
  register_side "a_to_b" t.ab;
  register_side "b_to_a" t.ba;
  (* direction-summed gauges keep the pre-split names alive for dashboards
     that chart the totals *)
  let aggregate suffix f =
    Obs.Registry.register_gauge reg
      (Printf.sprintf "can.gateway.%s.%s" t.name suffix)
      (fun () -> float_of_int (f t))
  in
  aggregate "forwarded" forwarded;
  aggregate "dropped" dropped;
  aggregate "shed" shed;
  aggregate "retries" retries;
  Obs.Registry.register_gauge reg
    (Printf.sprintf "can.gateway.%s.in_flight" t.name)
    (fun () -> float_of_int t.in_flight)

let disconnect t =
  if t.attached then begin
    Bus.detach t.a t.name;
    Bus.detach t.b t.name;
    t.attached <- false
  end

let reconnect t = if not t.attached then attach_buses t
