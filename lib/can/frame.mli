(** CAN frames and their wire encoding (ISO 11898-1 classic frames).

    A frame is a data frame (payload of 0..8 bytes) or a remote frame
    (payload-less request carrying only a DLC).  [to_wire] produces the
    physical bit sequence as a packed {!Wire.t}: the bit-stuffed segment
    from start-of-frame through the CRC sequence, followed by the
    unstuffed trailer (CRC delimiter, ACK slot, ACK delimiter, seven
    end-of-frame bits).  [of_wire] inverts it, checking structure,
    stuffing and CRC — the round-trip, the stuffing rule, the CRC's burst
    coverage and the decoder's verdicts on a seeded corpus of damaged
    wires are pinned by property tests.  The bus itself never encodes:
    it times a frame by {!wire_length}, which counts the same bits. *)

type t = private {
  id : Identifier.t;
  rtr : bool;  (** remote transmission request *)
  dlc : int;  (** data length code, 0..8 *)
  payload : string;  (** [dlc] bytes for data frames, [""] for remote *)
}

val data : Identifier.t -> string -> t
(** Data frame; DLC is the payload length.
    @raise Invalid_argument when the payload exceeds 8 bytes. *)

val remote : Identifier.t -> dlc:int -> t
(** Remote frame requesting [dlc] bytes.
    @raise Invalid_argument when [dlc] is outside 0..8. *)

val data_ext : int -> string -> t
(** Convenience: extended-identifier data frame. *)

val data_std : int -> string -> t
(** Convenience: standard-identifier data frame. *)

type line_error = Stuff_violation | Crc_mismatch | Form_error
(** How a controller signals a wire it cannot decode: a stuffing
    violation, a CRC mismatch, or a form error (a malformed field or
    trailer, a truncated frame). *)

val to_wire : t -> Wire.t
(** Physical bit sequence, stuffed and checksummed in one pass over the
    frame's fields. *)

val of_wire : Wire.t -> (t, line_error * string) result
(** Decode a wire, or say why not: the line-error class and a message.
    Checks run in a fixed order — length, trailer, stuffing, then the
    fields in wire order, trailing bits and finally the CRC — and the
    first failure is the one reported. *)

val wire_length : t -> int
(** [Wire.length (to_wire t)], counted rather than encoded: the same CRC
    and stuffing pass over the fields, with no wire written.  It
    allocates nothing (a property test and a [Gc.minor_words] test pin
    both). *)

val transmission_time : t -> bitrate:float -> float
(** Seconds on a bus of [bitrate] bits/s: {!wire_length} plus the 3-bit
    interframe space. *)

val payload_bytes : t -> int list
(** Payload as unsigned byte values. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** e.g. [0x0f0 [8] 01 02 03 04 05 06 07 08] or [0x0f0 remote dlc=2]. *)
