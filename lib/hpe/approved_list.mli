(** Approved CAN-message-ID lists (paper Fig. 4).

    The HPE holds one list of approved IDs for reading and one for writing;
    the decision block consults them per frame.  Three interchangeable
    implementations are provided for the lookup-structure ablation bench:
    a bitset over the 11-bit standard ID space (with a hash table for the
    sparse extended IDs), a plain hash table, and the compiled policy
    table's sorted-interval matcher ({!Secpol_policy.Intervals}) — the
    natural fit when approvals arrive as message-ID ranges. *)

type backend = Bitset | Hashtable | Intervals

type t

val create : ?backend:backend -> unit -> t
(** Empty list; default backend [Bitset]. *)

val backend : t -> backend

val add : t -> Secpol_can.Identifier.t -> unit

val add_range : t -> lo:int -> hi:int -> unit
(** Approve every *standard* ID in [lo..hi] (inclusive).
    @raise Invalid_argument when outside the 11-bit space or [hi < lo]. *)

val remove : t -> Secpol_can.Identifier.t -> unit

val mem : t -> Secpol_can.Identifier.t -> bool

val mem_std : t -> int -> bool
(** [mem] for a raw {e standard} (11-bit) ID, skipping the
    {!Secpol_can.Identifier.t} construction — the lookup the batched rx
    gate ({!Engine.gate_rx_batch}) streams with.  Allocation-free on the
    [Bitset] and [Intervals] backends. *)

val cardinal : t -> int

val clear : t -> unit

val of_ids : ?backend:backend -> Secpol_can.Identifier.t list -> t

val to_ids : t -> Secpol_can.Identifier.t list
(** Sorted: standard IDs ascending, then extended ascending. *)

val digest : t -> int
(** FNV-1a digest of the contents: all 2048 bits of the standard-ID
    bitmap, as 32-bit words, then the extended IDs in ascending order.
    Any change confined to one bitmap word (in particular any single
    added or removed standard ID) changes the digest.  Equal contents
    digest equally on every backend; on [Bitset] the digest reads the
    storage in place, allocating nothing unless extended IDs are
    present. *)

val pp : Format.formatter -> t -> unit
