(** CRC-15-CAN (polynomial x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1,
    i.e. 0x4599) computed over the frame bits from start-of-frame through
    the end of the data field, as ISO 11898-1 specifies. *)

val feed : int -> int -> bits:int -> int
(** [feed crc value ~bits] feeds the low [bits] bits of [value], most
    significant first: a frame's checksum is [0] fed each of its fields
    in turn, so encoder and decoder checksum a field as they write or
    parse it.  The result is 15 bits wide. *)

val width : int
(** 15. *)
