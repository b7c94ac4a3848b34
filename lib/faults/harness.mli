(** One car under one fault plan.

    The harness builds a driving {!Secpol_vehicle.Topology_car}: the
    four-segment car ({!Secpol_vehicle.Segment_map.spec}) for a
    segment-scoped plan, the flat one-bus car
    ({!Secpol_vehicle.Segment_map.flat_spec}) for any other.  It arms a
    {!Watchdog} whose ping is a live policy decision and whose expiry
    drives the car into fail-safe, schedules every fault in the plan (and
    its recovery) on the simulation engine, and keeps the bookkeeping —
    injection/clearing times, blast regions, mode timeline, stall and
    fail-safe timestamps — that {!Invariant} and {!Chaos} consume.

    One injector serves every fault kind:

    - {b Segment_partition}: the segment medium is severed (every
      transmission wire-errors); gateway forwards towards it abandon,
      back off and shed.  Healing restores the error probability seen at
      injection and resets the member controllers' error counters.
    - {b Babbling_idiot} and {b Segment_babble}: a rogue station floods
      the bus (the car's one bus, or the named segment) with
      top-priority frames.
    - {b Corruption_burst}: the bus's error probability jumps, then
      returns to the car's construction-time value.
    - {b Gateway_crash}: the gateway disconnects; failover is
      fail-closed — it returns in limp-home, forwarding only
      {!Secpol_vehicle.Segment_map.minimal_crossing_ids}.
    - node crashes and partitions, HPE register corruption, policy
      stalls and watchdog clock skew act on the named node, HPE, engine
      or clock. *)

type record = {
  entry : Plan.entry;
  mutable injected_at : float option;
  mutable cleared_at : float option;
  mutable region : string list;
      (** the segments the fault touches, set at injection: the named
          segment; for a gateway crash, everything it cuts off the
          healthy core; for a node fault, the segments of the named
          nodes; for a fault that names no segment (babbling idiot,
          corruption burst, policy stall, clock skew), every segment *)
}

type t

val create :
  ?placement:Secpol_vehicle.Topology_car.placement ->
  ?unbounded_gateway:bool ->
  seed:int64 ->
  plan:Plan.t ->
  unit ->
  t
(** [placement] defaults to [`Distributed] — the degradation story is
    about the hardware engines; both placements enforce
    {!Secpol_vehicle.Policy_map.baseline}.  [unbounded_gateway] builds
    the gateways with an effectively unlimited admission queue — the
    negative-containment configuration CI uses to prove the
    [blast_gateway_backlog] check can fail.  The watchdog pings every
    10 ms and trips after 50 ms.  Scrubs and the fail-safe transition are
    the car's ({!Secpol_vehicle.Topology_car.reprovision}, its policy's
    image), so they never consult the policy engine.
    @raise Invalid_argument on a plan that fails {!Plan.validate} against
    the car's topology, or that stalls the policy engine of a car that
    has none ([`Central] placement). *)

val run_until : t -> float -> unit
(** Advance the simulation (the chaos runner steps in slices and checks
    invariants between them). *)

val car : t -> Secpol_vehicle.Topology_car.t

val twin : t -> Secpol_vehicle.Topology_car.t
(** A fresh never-faulted car at time 0, built like {!car} (same seed,
    spec, placement, policy and gateway bounds) but without telemetry. *)

val obs : t -> Secpol_obs.Registry.t

val watchdog : t -> Watchdog.t

val plan : t -> Plan.t

val records : t -> record list
(** Plan order, with injection/clearing timestamps filled in as the run
    progresses. *)

val faulted : t -> string list
(** Union of every injected fault's region so far, newest segment first
    (monotone). *)

val stall_started : t -> float option
(** When the first policy stall was injected, if any. *)

val failsafe_entered : t -> float option
(** When the car first entered fail-safe, if it did: driven by the
    watchdog, or by a crash before it. *)

val min_clock_factor : t -> float
(** Slowest watchdog clock rate seen so far (1.0 without skew faults). *)

val mode_at : t -> float -> Secpol_vehicle.Modes.t
(** Operating mode at a past simulation time, from the car's
    {!Secpol_vehicle.State.t.modes}. *)

val failsafe_bound : t -> stall_at:float -> float
(** Latest acceptable fail-safe entry for a stall injected at [stall_at]:
    one watchdog period to notice, the deadline of continuous failure,
    one period of grid slack — stretched by the slowest clock factor. *)
