(** CAN transceiver model (paper Fig. 3).

    The physical transceiver converts between the differential CAN-H/CAN-L
    pair and the controller's single-ended bit stream.  In the simulator the
    "wire" is the packed bit vector of {!Frame.to_wire}; the transceiver is
    the boundary where frames become bits and line errors surface.  The
    bus simulation does not pass through it ({!Bus.attach} says why it
    need not); Fig. 3 and the codec tests do. *)

type line_error = Frame.line_error =
  | Stuff_violation
  | Crc_mismatch
  | Form_error

type rx = Frame of Frame.t | Line_error of line_error

val transmit : Frame.t -> Wire.t
(** Drive a frame onto the wire. *)

val receive : Wire.t -> rx
(** Sample a wire sequence back into a frame, or into the line-error
    class {!Frame.of_wire} reports: stuffing violations, CRC mismatches,
    and form errors (malformed fields/trailer). *)

val corrupt : Secpol_sim.Rng.t -> Wire.t -> Wire.t
(** Flip one random bit — electrical noise injection for error-path
    testing.  Draws one [Rng.int] over the wire's length; an empty wire
    comes back unchanged, drawing nothing. *)

val line_error_name : line_error -> string
