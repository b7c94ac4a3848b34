(** Memory-mapped register interface of the HPE.

    The engine is configured the way real security IP is: boot firmware
    writes its approved lists through a small register file, then sets the
    lock bit.  Once locked, every further write is refused until hardware
    reset — this is what keeps the HPE out of reach of compromised
    firmware. *)

type t

(** Register map (word addresses): *)

val ctrl : int
(** 0x00 — bit0: read filter enable; bit1: write filter enable;
    bit2: lock (write-once). *)

val status : int
(** 0x04 — read-only; bit0/bit1 mirror the enables, bit2 the lock. *)

val cmd_add_read : int
(** 0x08 — write a standard CAN ID to approve it for reading. *)

val cmd_add_write : int
(** 0x0C — write a standard CAN ID to approve it for writing. *)

val cmd_clear : int
(** 0x10 — write any value to clear both approved lists. *)

val count_read : int
(** 0x14 — read-only; cardinality of the approved reading list. *)

val count_write : int
(** 0x18 — read-only; cardinality of the approved writing list. *)

val create : unit -> t
(** Reset state: filters disabled, unlocked, empty lists. *)

val read_list : t -> Approved_list.t

val write_list : t -> Approved_list.t

val read_filter_enabled : t -> bool

val write_filter_enabled : t -> bool

val locked : t -> bool

val write_reg : t -> addr:int -> int -> (unit, string) result
(** Refused when locked (except that re-writing CTRL with the lock bit
    already set is idempotent), on read-only or unknown addresses, and on
    out-of-range IDs. *)

val read_reg : t -> addr:int -> (int, string) result

val hard_reset : t -> unit
(** Clears everything including the lock — models a power cycle with
    re-provisioning, not something reachable from software. *)

val checksum : t -> int
(** FNV-1a digest of the whole register file: each approved list's
    {!Approved_list.digest} (every bit of its 2048-bit standard-ID
    bitmap, then its extended IDs in sorted order), then the enables and
    the lock bit.  Independent of insertion order.  Any single added or
    removed ID in either list changes it. *)

val integrity_ok : t -> bool
(** The register file re-seals its stored checksum on every successful
    {!write_reg} (the authorised programming path) and on {!hard_reset};
    [integrity_ok] recomputes the digest and compares.  [false] therefore
    means the file was altered out of band — a bit flip or glitch attack
    on the approved-list RAM — and the engine's gates must fail closed
    (deny everything) rather than enforce a corrupted policy.

    Both of the engine's gates ({!Engine.gate_rx} and {!Engine.gate_tx})
    call this on every frame, before any list lookup, and each call
    recomputes the digest from the lists' contents: nothing is cached,
    because an out-of-band write would not invalidate a cache.  It reads the
    bitmaps in place and allocates nothing while the lists hold no
    extended IDs: well under a microsecond a call (the
    [hpe/registers/integrity_ok] row of [bench perf]). *)
