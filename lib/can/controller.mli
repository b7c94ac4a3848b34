(** CAN controller model (paper Fig. 3): frame decode, acceptance
    filtering, error confinement and transmit/receive statistics.

    The controller is deliberately firmware-configurable: its acceptance
    filters can be rewritten at run time ([set_filters]), which is exactly
    the weakness the paper's hardware policy engine addresses — compromised
    firmware clears the filters, the HPE stays put. *)

type stats = {
  mutable tx_ok : int;
  mutable tx_errors : int;
  mutable tx_abandoned : int;
  mutable tx_refused : int;
  mutable rx_delivered : int;
  mutable rx_filtered : int;
  mutable rx_line_errors : int;
}

type rx_result =
  | Deliver of Frame.t  (** passed decode and acceptance *)
  | Filtered of Frame.t  (** decoded but rejected by acceptance filters *)
  | Line_error of Transceiver.line_error

type t

val create : name:string -> unit -> t
(** Reset state: no acceptance filters (everything accepted). *)

val name : t -> string

val filters : t -> Acceptance.t list

val set_filters : t -> Acceptance.t list -> unit

val errors : t -> Errors.t

val stats : t -> stats

val accept : t -> Frame.t -> bool
(** Take one frame off the bus: [true] when it passes the acceptance
    filters (counted as delivered, REC decays), [false] when they drop it
    (counted as filtered).  This is the bus path: {!Bus} hands stations
    the frame that was sent, never bits, so there is no line error to
    count here. *)

val receive : t -> Transceiver.rx -> rx_result
(** Take one sampled wire: {!accept} a decoded frame, or count a line
    error.  A caller holding raw bits passes them through
    {!Transceiver.receive} first. *)

val note_tx_ok : t -> unit

val note_tx_error : t -> unit

val note_tx_abandoned : t -> unit

val note_tx_refused : t -> unit

val note_wire_error : t -> unit
(** A corrupted transmission observed as a bystander (bumps REC). *)

val pp_stats : Format.formatter -> stats -> unit
