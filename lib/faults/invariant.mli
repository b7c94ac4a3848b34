(** Safety invariants checked throughout a chaos run.

    A checker is stateful: {!check} is called at every slice boundary and
    examines only what changed since the last call, {!finalize} adds the
    end-of-run obligations.  One checker serves the flat car and the
    four-segment car alike.

    Every segment, every slice:

    - {b counters}: bus counters never go backwards and the arbitration
      queue stays bounded (a partitioned segment must shed load, not
      queue forever);
    - {b approved_rx}: under any fault, no frame is delivered to an
      HPE-guarded node outside its approved reading list for the mode in
      force — faults may cost availability, never policy violations.

    Segments outside the blast region ({!Harness.faulted}) — a fault may
    do anything to its own region, every other segment must stay within
    {!bound}:

    - {b blast_pending}: the arbitration queue stays under [max_pending];
    - {b blast_latency}: the cumulative delivery-latency p99 stays under
      [p99_ms];
    - {b blast_liveness}: once the first 0.5 s have passed, frames never
      stop arriving for 0.25 s;
    - {b blast_decisions}: enforcement never starts blocking designed
      traffic ([Topology_car.false_blocks_in] stays flat).

    Car-wide:

    - {b blast_gateway_backlog}: every gateway's in-flight forwards stay
      under [max_gateway_backlog] — the check a gateway with an unbounded
      queue fails when its destination segment saturates;
    - {b failsafe_deadline}: once the policy engine stalls, the car is in
      fail-safe no later than {!Harness.failsafe_bound}.

    End of run:

    - {b latched} (degrading plans): the run ends latched in fail-safe;
    - {b convergence} (recoverable plans): the final vehicle state equals
      the never-faulted twin's, field by field;
    - {b blast_recovery}: a healed segment delivers again before the
      horizon;
    - {b limp_home}: after a gateway failover, the cut-off segments only
      receive the minimal crossing whitelist or their own traffic. *)

type violation = { time : float; check : string; detail : string }

type bound = { max_pending : int; p99_ms : float; max_gateway_backlog : int }

val bound : bound
(** 512 pending frames, 25 ms p99, 128 gateway forwards in flight. *)

type t

val create : Harness.t -> t

val check : t -> unit
(** Examine everything since the previous call; record violations. *)

val finalize : t -> reference:Secpol_vehicle.Topology_car.t -> unit
(** Run {!check} once more, then the end-of-run obligations.
    [reference] is the never-faulted twin ({!Harness.twin}) advanced to
    the same horizon. *)

val violations : t -> violation list
(** Chronological. *)

val ok : t -> bool
