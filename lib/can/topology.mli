(** A multi-segment CAN topology: named segment buses joined by gateways.

    This generalises the paper's §V "CAN bus gateway" guideline from the
    hard-coded two-bus special case to a graph: each {e segment} is a
    {!Bus} owning a set of stations, each {e link} is a {!Gateway} ECU
    joining two segments.  The segment graph must be a tree, so every
    frame has a unique route and a single gateway crash splits the car
    into exactly two sides.

    Routing is {e derived}, never hand-wired: the caller supplies the
    designed {!flow}s (typically computed from the vehicle message map
    filtered by the compiled policy — see [Vehicle.Segment_map]), and each
    gateway's per-direction ID whitelist is the set of flows whose unique
    tree path crosses that directed edge.  {!route} exposes the resulting
    reachability relation so tests can check the wiring against the
    declaration. *)

type spec = {
  segments : (string * string list) list;
      (** segment name, member node names (each node in exactly one) *)
  links : (string * (string * string)) list;
      (** gateway name, (segment [a], segment [b]) *)
}

type flow = {
  id : int;  (** standard CAN identifier *)
  src : string;  (** producing segment *)
  dsts : string list;  (** consuming segments *)
}

type t

val create :
  ?bitrate:float ->
  ?corrupt_prob:float ->
  ?max_in_flight:int ->
  ?retry_backoff:float ->
  ?max_retries:int ->
  ?forward_timeout:float ->
  Secpol_sim.Engine.t ->
  spec ->
  flows:flow list ->
  t
(** Validate [spec], build one bus per segment (all at [bitrate], default
    500 kbit/s) and one gateway per link with whitelists derived from
    [flows].  The gateway bounds ([max_in_flight] etc.) apply to every
    gateway and default to {!Gateway.connect}'s defaults.
    @raise Invalid_argument if the spec is not a connected tree, names
    collide, or a flow references an unknown segment. *)

val sim : t -> Secpol_sim.Engine.t

val spec : t -> spec

val flows : t -> flow list

val segments : t -> string list
(** Segment names, in spec order. *)

val gateway_names : t -> string list

val bus : t -> string -> Bus.t
(** By segment name.  @raise Invalid_argument on unknown names. *)

val gateway : t -> string -> Gateway.t
(** By gateway name.  @raise Invalid_argument on unknown names. *)

val link : t -> string -> string * string
(** The two segments a gateway joins.
    @raise Invalid_argument on unknown names. *)

val segment_of : t -> string -> string option
(** Segment owning a node name, if any. *)

val members : t -> string -> string list
(** Node names of a segment.  @raise Invalid_argument on unknown names. *)

val crossing_ids : t -> gateway:string -> Gateway.direction -> int list
(** The derived whitelist of one directed edge, sorted. *)

val route : t -> src:string -> int -> string list
(** Segments (in spec order, [src] included) a frame with the given
    standard ID injected on [src] can reach: the closure over directed
    edges whose whitelist carries the ID.  This is the declared routing
    semantics the gateways implement. *)

val components : t -> without:string list -> string list list
(** Connected components of the segment graph once the named gateways'
    links are severed — the blast-region computation for gateway crashes.
    @raise Invalid_argument on unknown gateway names. *)

val restrict : t -> gateway:string -> ids:int list -> unit
(** Replace the gateway's predicates with the intersection of its derived
    whitelists and [ids] — the fail-closed limp-home used by gateway
    failover (never wider than the designed whitelist). *)

val restore : t -> gateway:string -> unit
(** Reinstate the gateway's full derived whitelists. *)

val attach_obs : ?prefix:string -> t -> Secpol_obs.Registry.t -> unit
(** Export every segment bus under [<prefix>.<segment>.*] (default prefix
    ["can.seg"]) and every gateway under [can.gateway.<name>.*].  A
    topology of one segment and no links exports its bus under
    {!Bus.attach_obs}'s own [can.bus.*] names. *)
