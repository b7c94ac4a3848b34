(** The physical CAN wire (paper Fig. 3) and its bit stuffing.

    A wire is a packed bit vector: [Bytes] plus a length, eight bits to a
    byte, the earliest bit in the most significant position.  A 0 bit
    ([false]) is the dominant level, a 1 ([true]) the recessive one.

    Bit stuffing (ISO 11898-1): after five consecutive bits of the same
    polarity the transmitter inserts one bit of opposite polarity, and
    receivers strip it.  A frame is stuffed from start-of-frame through
    the CRC sequence. *)

type t

val length : t -> int

val get : t -> int -> bool
(** @raise Invalid_argument outside [0 .. length - 1]. *)

val init : int -> (int -> bool) -> t
(** [init n f] is the wire of bits [f 0 .. f (n - 1)], unstuffed as
    given. *)

(** {1 Transmitting} *)

type writer
(** A wire being driven, bit field by bit field, with the transmitter's
    stuffing run. *)

val writer : int -> writer
(** Room for at least that many bits.  Writing past the room raises
    [Invalid_argument]. *)

val stuffed : writer -> int -> bits:int -> unit
(** [stuffed w value ~bits] appends the low [bits] bits of [value], most
    significant first, inserting a stuff bit after every five equal bits.
    The run carries over from one call to the next. *)

val raw : writer -> int -> bits:int -> unit
(** As {!stuffed}, without stuffing: a frame's trailer. *)

val contents : writer -> t
(** The bits written so far.  The wire shares the writer's buffer, so the
    writer must not be written to afterwards. *)

(** {1 Receiving} *)

val unstuff : t -> len:int -> (t, string) result
(** The first [len] bits with their stuff bits removed.  Errors on a
    stuffing violation (six consecutive equal bits), which on a real bus
    raises a stuff-error frame.
    @raise Invalid_argument when [len] exceeds the wire's length. *)

val read : t -> pos:int -> bits:int -> int
(** The [bits] bits from [pos] as an unsigned integer, most significant
    first.
    @raise Invalid_argument when they run past the end of the wire. *)
