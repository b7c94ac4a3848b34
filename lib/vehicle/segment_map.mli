(** The car's segment layout and policy-derived flows.

    Binds the vehicle message map ({!Messages}) and the compiled policy
    ({!Policy_map}) to the generic {!Secpol_can.Topology} graph: the flat
    one-bus layout, the reference four-segment layout, the historical
    two-segment split, and the flow derivation that turns "designed producer/consumer + policy
    says the consumer may read" into gateway routing. *)

val seg_powertrain : string

val seg_chassis : string

val seg_infotainment : string

val seg_telematics : string

val seg_comfort : string
(** Only used by the two-segment spec. *)

val seg_bus : string
(** The flat spec's one segment. *)

val gw_powertrain : string

val gw_infotainment : string

val gw_telematics : string

val spec : unit -> Secpol_can.Topology.spec
(** Four segments in a star around the chassis backbone: powertrain
    (sensors, EV-ECU, engine), chassis (EPS, safety, door locks),
    infotainment and telematics each alone behind their own gateway. *)

val flat_spec : unit -> Secpol_can.Topology.spec
(** One segment, {!seg_bus}, holding every node of {!Names.nodes}, and no
    links — the flat car of paper Fig. 2, which {!Car} builds. *)

val two_segment_spec : unit -> Secpol_can.Topology.spec
(** The original powertrain/comfort split with a single gateway named
    ["gateway"]: the guideline gateway architecture (paper §V) that the
    ablation bench compares with the HPE. *)

val segment_of_node : Secpol_can.Topology.spec -> string -> string option

val flows :
  ?policy:Secpol_policy.Ast.policy ->
  spec:Secpol_can.Topology.spec ->
  unit ->
  Secpol_can.Topology.flow list
(** One flow per (message, producing segment); destinations are the
    segments of consumers the policy (default {!Policy_map.baseline})
    permits to read the message in at least one mode, with fresh budgets:
    {!Secpol_policy.Table.resolver} on the policy's image's table
    ({!Policy_map.table}), the answer the consumer's HPE read list is
    built from.  Messages no policy lets anyone read produce no flow, so
    they never cross a gateway. *)

val minimal_crossing_ids : unit -> int list
(** Mode-unrestricted safety-critical messages that cross segments of the
    reference spec (airbag deploy, fail-safe entry) — the fail-closed
    limp-home whitelist a crashed gateway falls back to on failover. *)
