(** The assembled connected car (paper Fig. 2): eight ECUs on one CAN bus,
    with selectable enforcement.

    A view over a one-segment {!Topology_car} ({!Segment_map.flat_spec}):
    the record holds what callers read, every operation is the topology
    car's.

    Enforcement levels, matching the experiments:
    - [No_enforcement]: acceptance filters cleared, no HPE — a device
      shipped with no security mechanism (and the state firmware compromise
      reduces the next level to).
    - [Software_filters]: controller acceptance filters per the message
      map's consumer sets — the conventional, firmware-configured defence.
    - [Hpe policy]: software filters *plus* a locked hardware policy engine
      on every node, provisioned from the given policy.

    [Hpe p] is the [`Distributed] placement with policy [p]; the other two
    are [`Central], which on a car without gateways leaves the acceptance
    filters as the only enforcement. *)

type enforcement =
  | No_enforcement
  | Software_filters
  | Hpe of Secpol_policy.Ast.policy

type t = {
  sim : Secpol_sim.Engine.t;
  bus : Secpol_can.Bus.t;
  state : State.t;
  enforcement : enforcement;
  nodes : (string * Secpol_can.Node.t) list;
  hpes : (string * Secpol_hpe.Engine.t) list;  (** empty unless [Hpe _] *)
  policy_engine : Secpol_policy.Engine.t option;
  topology_car : Topology_car.t;  (** the one-segment car this is a view of *)
}

val create :
  ?seed:int64 ->
  ?bitrate:float ->
  ?corrupt_prob:float ->
  ?enforcement:enforcement ->
  ?driving:bool ->
  ?obs:Secpol_obs.Registry.t ->
  unit ->
  t
(** Build the car at simulation time 0.  [enforcement] defaults to
    [Software_filters]; [driving] (default [true]) starts in normal mode at
    speed, engine running.  With [Hpe p] every node's HPE is provisioned
    for the initial mode and locked.  [obs] wires the bus and every HPE
    into one telemetry registry, on simulation time (the policy engine
    stays out, as in {!Topology_car.create}); omit it and no telemetry
    work happens beyond each component's own counters. *)

val node : t -> string -> Secpol_can.Node.t
(** @raise Invalid_argument on unknown node names; use {!Names}. *)

val hpe : t -> string -> Secpol_hpe.Engine.t option

val run : t -> seconds:float -> unit
(** Advance the simulation. *)

val mode : t -> Modes.t

val set_mode : t -> Modes.t -> unit
(** {!Topology_car.set_mode}: the HPEs are re-provisioned for the new
    mode. *)

val false_hpe_blocks : t -> int
(** Blocks that would hurt legitimate function on *clean* traffic:
    {!Topology_car.false_blocks_in} of the one segment.  The reproduction
    expects 0 on benign runs. *)

val total_deliveries : t -> int

val trace : t -> Secpol_can.Trace.t
