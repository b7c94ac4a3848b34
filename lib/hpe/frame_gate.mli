(** Per-node HPE frame gating, replayed over captured traffic.

    The paper's HPE is one enforcement point {e per CAN node}: each node's
    hardware holds its own approved lists and rate-limiter state.  This
    module replays a stream of gate crossings through one gate per
    configured node, in input order, without the register-level
    {!Engine}: the bank a topology benchmark uses to price distributed
    against central enforcement.

    Each event is a frame crossing one node's gate: [Tx] (the node wants
    the frame on the bus — checked against its write approvals and write
    budgets) or [Rx] (a bus frame arriving — checked against its read
    approvals, and against its exclusively-owned IDs for impersonation).
    Nodes without a configured gate pass traffic through untouched, as an
    unprotected ECU on a mixed bus would. *)

type dir = Rx | Tx

type event = {
  time : float;  (** seconds; non-decreasing per node *)
  node : string;
  dir : dir;
  id : Secpol_can.Identifier.t;
}

type verdict =
  | Grant
  | Block  (** not on the relevant approved list, or an Rx spoof *)
  | Rate_block  (** write-approved but its sliding-window budget is spent *)

type stats = { granted : int; blocked : int; rate_blocked : int }

type result = {
  verdicts : verdict array;  (** one per event, in input order *)
  registry : Secpol_obs.Registry.t;  (** the [hpe.gate.*] counters *)
  stats : stats;
}

val run : (string * Config.t) list -> event array -> result
(** [run configs events] gates every event through its node's
    configuration (commonly built with {!Config.of_policy}). *)
