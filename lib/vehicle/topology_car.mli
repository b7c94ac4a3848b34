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

    The HPEs are provisioned from the policy's image
    ({!Policy_map.image}): cars built from one policy value share its
    table and its per-mode HPE configs, so a build only builds the ECUs,
    installs the HPEs and provisions them.  The [Fail_safe] configs are
    derived by the time the car is built, and no mode change consults
    the policy engine, so degradation never depends on it answering.  The
    car is the only writer of its mode: {!set_mode}, {!enter_fail_safe}
    and a crash (the safety ECU's request, through a hook {!create}
    installs) all move the mode, the latch and every HPE one way. *)

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
(** The car's own engine over its image's table
    ({!Secpol_policy.Engine.of_table}): cars built from one policy value
    share the table, and each keeps its own rate budgets, counters and
    stall flag.  The HPEs follow the image, not the engine: a
    {!Secpol_policy.Engine.swap_db} on it moves no HPE.  [None] under
    [`Central]. *)

val hpe_configs : t -> Modes.t -> (string * Secpol_hpe.Config.t) list
(** Every HPE's config in one mode, as {!set_mode} provisions it: the
    image's ({!Policy_map.configs}).  Empty under [`Central]. *)

val run : t -> seconds:float -> unit

val mode : t -> Modes.t

val set_mode : t -> Modes.t -> unit
(** Change operating mode.  The mode line enters each HPE as a hardware
    input: under [`Distributed] the engines are hard-reset and
    re-provisioned from the new mode's {!hpe_configs} (firmware is not
    involved and the lock is re-applied).  [Fail_safe] sets the latch and
    does nothing while it is set; any other mode clears it, so the next
    crash or watchdog expiry enters Fail_safe again. *)

val enter_fail_safe : t -> reason:string -> unit
(** The degradation path (paper Table I's Fail-safe operating mode): latch
    [Fail_safe], log the reason, and re-provision every HPE from the
    image's fail-safe configs, derived by the time the car was built.
    Never consults the policy engine — this is the transition a watchdog
    takes precisely when the engine has stopped answering — and, because
    each register file is hard-reset and re-programmed, it also restores
    HPE integrity after register corruption.  Does nothing while the
    latch is set, whoever set it. *)

val reprovision : t -> string -> unit
(** A mode change's step for one node, as a scrub: hard-reset its HPE and
    provision the current mode's config.  A no-op without an HPE. *)

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
