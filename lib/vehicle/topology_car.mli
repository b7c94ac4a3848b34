(** The car, on any segment layout, with a placement switch.

    Builds the full ECU set on a {!Secpol_can.Topology} graph (default:
    {!Segment_map.spec}, the four-segment star; {!Car} is this module over
    {!Segment_map.flat_spec}) with routing derived from the message map
    filtered by the policy, and distributes enforcement according to
    [placement] — the DiSPEL central-vs-distributed comparison as one
    flag:

    - [`Central]: enforcement lives only in the gateways' policy-derived
      ID whitelists (plus stock ECU acceptance filters).  A forged frame
      whose ID legitimately crosses is forwarded regardless of origin —
      the per-ID residual weakness.
    - [`Distributed] (default): every node additionally carries an HPE
      provisioned from the policy for the current mode, so forged traffic
      is blocked at its source segment and spoofed IDs at the write gate.

    HPE configs for [Fail_safe] are cached at build time, so degradation
    never depends on the policy engine answering. *)

type placement = [ `Central | `Distributed ]

val placement_name : placement -> string

val placement_of_name : string -> placement option

type t

val create :
  ?seed:int64 ->
  ?bitrate:float ->
  ?corrupt_prob:float ->
  ?driving:bool ->
  ?placement:placement ->
  ?policy:Secpol_policy.Ast.policy ->
  ?spec:Secpol_can.Topology.spec ->
  ?obs:Secpol_obs.Registry.t ->
  ?max_in_flight:int ->
  unit ->
  t
(** Build the car at simulation time 0.  [corrupt_prob] (default 0) is
    every segment's per-transmission error probability; [driving]
    (default [true]) starts in normal mode at speed, engine running.
    [policy] (default {!Policy_map.baseline}) provisions the HPEs and
    filters the gateway whitelists; a spec without links derives no
    flows.  [max_in_flight] bounds every gateway's admission queue
    (default {!Secpol_can.Gateway.connect}'s).  [obs] registers every
    segment bus (under [can.seg.<segment>.*], or [can.bus.*] for a
    one-segment spec), gateway and HPE in one registry, all of them on
    simulation time.  The policy engine is not in it: it would time its
    decisions on the host clock (see {!Secpol_policy.Engine.create}). *)

val sim : t -> Secpol_sim.Engine.t

val topology : t -> Secpol_can.Topology.t

val placement : t -> placement

val state : t -> State.t

val node : t -> string -> Secpol_can.Node.t
(** @raise Invalid_argument on unknown node names. *)

val nodes : t -> (string * Secpol_can.Node.t) list

val hpes : t -> (string * Secpol_hpe.Engine.t) list
(** Empty under [`Central] placement. *)

val hpe : t -> string -> Secpol_hpe.Engine.t option
(** [None] for every node under [`Central] placement. *)

val policy_engine : t -> Secpol_policy.Engine.t option
(** The engine whose compiled table the HPEs are provisioned from
    ({!Policy_map.hpe_configs}); [None] under [`Central]. *)

val run : t -> seconds:float -> unit

val mode : t -> Modes.t

val set_mode : t -> Modes.t -> unit
(** Change operating mode.  The mode line enters each HPE as a hardware
    input: under [`Distributed] the engines are hard-reset and
    re-provisioned for the new mode (firmware is not involved and the
    lock is re-applied). *)

val enter_fail_safe : t -> reason:string -> unit
(** The degradation path (paper Table I's Fail-safe operating mode): latch
    [Fail_safe], log the reason, and re-provision every HPE from the
    fail-safe configs cached at build time.  Never consults the policy
    engine — this is the transition a watchdog takes precisely when the
    engine has stopped answering — and, because each register file is
    hard-reset and re-programmed, it also restores HPE integrity after
    register corruption.  Idempotent once in [Fail_safe]. *)

val segments : t -> string list

val segment_of : t -> string -> string option

val bus : t -> string -> Secpol_can.Bus.t
(** By segment name.  @raise Invalid_argument on unknown names. *)

val deliveries_in : t -> string -> int
(** Frames delivered to the segment's member nodes so far.
    @raise Invalid_argument on unknown segment names. *)

val total_deliveries : t -> int

val false_blocks_in : t -> string -> int
(** Enforcement blocks that hit designed traffic in one segment: HPE
    write-gate blocks at member nodes (designed nodes only transmit
    designed messages) plus read-gate blocks of frames whose receiver is
    a designed consumer.  The reproduction expects 0 on benign runs;
    always 0 under [`Central]. *)
