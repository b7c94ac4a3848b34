(** A fail-safe watchdog over an unreliable dependency.

    Every [period] (simulation) seconds the watchdog pings its dependency.
    When pings have been failing for at least [deadline] seconds of its
    {e local} clock — which may be skewed — it trips once and fires
    [on_expire]; a later healthy ping re-arms it.  [on_expire] is the
    degradation hook: in the chaos harness it is
    {!Secpol_vehicle.Topology_car.enter_fail_safe}. *)

type t

val create :
  ?period:float ->
  ?deadline:float ->
  clock:Clock.t ->
  ping:(unit -> bool) ->
  on_expire:(unit -> unit) ->
  Secpol_sim.Engine.t ->
  t
(** Defaults: ping every 10 ms, trip after 50 ms of continuous failure.
    Scheduling starts immediately (first check one period in).
    @raise Invalid_argument on non-positive period or deadline. *)

val period : t -> float

val deadline : t -> float

val tripped : t -> bool
(** Currently expired (no healthy ping since the trip). *)

val trips : t -> int
(** Total times the deadline expired. *)

val detections : t -> (float * float) list
(** Per trip, chronological: the simulation time the watchdog tripped and
    the detection latency (trip time minus the first failed ping), both in
    simulation seconds regardless of clock skew. *)
