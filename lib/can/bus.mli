(** The shared CAN bus (paper Fig. 2): broadcast medium with priority
    arbitration, transmission timing, optional noise, and automatic
    retransmission.

    CAN is multi-master CSMA/CR: when the bus goes idle, the pending frame
    with the dominant (numerically lowest) identifier wins arbitration and
    transmits; losers wait.  Every attached station sees every frame —
    which is the security problem the paper starts from. *)

type tx_outcome = Sent | Retried of int | Abandoned

type t

val create :
  ?corrupt_prob:float ->
  ?max_retries:int ->
  bitrate:float ->
  Secpol_sim.Engine.t ->
  t
(** [corrupt_prob] (default 0.) is the per-transmission probability of a
    line error; [max_retries] (default 16) bounds automatic
    retransmission.  [bitrate] in bits/s (classic CAN: 125k/250k/500k/1M).
    @raise Invalid_argument on a non-positive bitrate or a probability
    outside [0,1]. *)

val sim : t -> Secpol_sim.Engine.t

val trace : t -> Trace.t

val attach :
  t ->
  name:string ->
  deliver:(sender:string -> Frame.t -> unit) ->
  on_wire_error:(unit -> unit) ->
  unit
(** Connect a station.  [deliver] receives every frame some *other*
    station transmits, when its transmission completes; [on_wire_error]
    fires when a transmission is corrupted on the wire.

    The bus never materialises a frame's bits: the frame that wins
    arbitration is timed by {!Frame.transmission_time}, which counts its
    stuffed bits, and on a clean completion every other station is handed
    the very frame the sender queued.  This is exact, not an
    approximation.  A corrupted transmission never reaches [deliver]: the
    stations see it only through [on_wire_error], and the frame is
    retried.  An uncorrupted encoding decodes back to the frame
    ([Frame.of_wire (Frame.to_wire f) = Ok f], a property test), and
    {!Frame.t}'s constructors admit only frames that encode, so no
    station could have sampled anything else.
    @raise Invalid_argument on a duplicate station name. *)

val detach : t -> string -> unit
(** Remove a station.  Frames the station still had queued for arbitration
    are dropped and accounted as abandoned ([Tx_abandoned] trace entries,
    the [abandoned] counter, and each frame's [on_outcome]); a frame of the
    station already on the wire completes normally.  Unknown names are
    ignored. *)

val corrupt_prob : t -> float

val set_corrupt_prob : t -> float -> unit
(** Change the per-transmission line-error probability at run time — the
    injection point for frame-corruption bursts (fault campaigns raise it
    for a bounded window, then restore it).
    @raise Invalid_argument outside [0,1]. *)

val stations : t -> string list

val transmit :
  t -> sender:string -> ?on_outcome:(tx_outcome -> unit) -> Frame.t -> unit
(** Queue a frame for transmission.  Delivery happens after arbitration and
    the frame's wire time; [on_outcome] reports the final fate. *)

val pending : t -> int

val frames_sent : t -> int

val retries : t -> int
(** Retransmissions after a wire error (the frame lost arbitration to
    noise, not to a dominant id). *)

val abandoned : t -> int
(** Frames given up after [max_retries] consecutive wire errors. *)

val wire_errors : t -> int
(** Corrupted transmissions observed on the wire. *)

val busy_time : t -> float
(** Cumulative seconds the bus spent transmitting (for utilisation). *)

val utilisation : t -> float
(** [busy_time / now]; 0. at time 0. *)

val tx_latency : t -> Secpol_obs.Histogram.t
(** Queue-to-delivery latency per successfully sent frame, in simulated
    milliseconds — arbitration and retransmission delay included. *)

val attach_obs : ?prefix:string -> t -> Secpol_obs.Registry.t -> unit
(** Export the bus counters, the [tx_latency_ms] histogram and the load
    gauges ([utilisation], [busy_time_s], [pending]) under
    [<prefix>.*] (default prefix ["can.bus"]).  Multi-segment topologies
    pass a per-segment prefix (e.g. ["can.seg.powertrain"]) so several
    buses can share one registry.  The bus always maintains these
    instruments; attaching merely names them in the registry. *)
