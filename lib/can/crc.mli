(** CRC-15-CAN (polynomial x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1,
    i.e. 0x4599) computed over the frame bits from start-of-frame through
    the end of the data field, as ISO 11898-1 specifies. *)

val compute : bool list -> int
(** 15-bit checksum of a bit sequence (MSB-first). *)

val step : int -> bool -> int
(** [step crc bit] feeds one more bit: [compute bits] is
    [List.fold_left step 0 bits], so a decoder can checksum bits as it
    parses them. *)

val width : int
(** 15. *)

val to_bits : int -> bool list
(** The checksum as its 15 wire bits, MSB first. *)
