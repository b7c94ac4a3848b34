(** Approved CAN-message-ID lists (paper Fig. 4).

    The HPE holds one list of approved IDs for reading and one for writing;
    the decision block consults them per frame.  A list is a bitset over
    the 11-bit standard ID space, with a hash set for the sparse
    extended IDs: a standard-ID lookup is one bit test. *)

type t

val create : unit -> t
(** Empty list. *)

val add : t -> Secpol_can.Identifier.t -> unit

val add_range : t -> lo:int -> hi:int -> unit
(** Approve every *standard* ID in [lo..hi] (inclusive).
    @raise Invalid_argument when outside the 11-bit space or [hi < lo]. *)

val remove : t -> Secpol_can.Identifier.t -> unit

val mem : t -> Secpol_can.Identifier.t -> bool
(** Allocation-free: one bit test for a standard ID, one hash lookup for
    an extended one. *)

val cardinal : t -> int

val clear : t -> unit

val of_ids : Secpol_can.Identifier.t list -> t

val to_ids : t -> Secpol_can.Identifier.t list
(** Sorted: standard IDs ascending, then extended ascending. *)

val equal : t -> t -> bool
(** Same standard and extended IDs.  Reads both 2048-bit bitmaps in full,
    in place, with one [memcmp] ([Bytes.compare]), unless they differ
    early, and allocates nothing while the first list holds no extended
    IDs: the register file's integrity seal ({!Registers.integrity_ok})
    calls it on every frame. *)

val blit : src:t -> dst:t -> unit
(** Make [dst] hold exactly [src]'s IDs, copying the bitmap in place.  The
    extended-ID sets are touched only when either side holds one. *)

val pp : Format.formatter -> t -> unit
