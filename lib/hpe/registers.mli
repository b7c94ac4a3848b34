(** Memory-mapped register interface of the HPE.

    The engine is configured the way real security IP is: boot firmware
    writes its approved lists and budgets through a small register file,
    then sets the lock bit.  Once locked, every further write is refused
    until hardware reset — this is what keeps the HPE out of reach of
    compromised firmware. *)

type t

type chain = int Secpol_policy.Table.answer
(** A rated ID's resolved answer, its rated allows as slot indices. *)

type budgets = {
  slots : Secpol_policy.Ast.rate array;  (** one per rated allow rule *)
  reads : (int * chain) array;  (** rated read IDs, with their chains *)
  writes : (int * chain) array;
}
(** IDs whose requests share a rule, read or written, share its slot. *)

val no_budgets : budgets

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
(** 0x10 — write any value to clear both approved lists and budgets. *)

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

val load_budgets : t -> budgets -> (unit, string) result
(** Write the budgets in one burst, each slot with a fresh window; an
    accepted load seals them.  Refused when locked, and for a negative
    count, a non-positive window, an unknown slot, or IDs outside the
    11-bit space or not ascending. *)

val budgets : t -> budgets
(** The live budgets, whose arrays only out-of-band corruption edits. *)

val windows : t -> Secpol_policy.Rate_window.t array
(** Slot [i]'s grant times: state, outside the seal. *)

val write_reg : t -> addr:int -> int -> (unit, string) result
(** Refused when locked (except that re-writing CTRL with the lock bit
    already set is idempotent), on read-only or unknown addresses, and on
    out-of-range IDs.  An accepted write to an unlocked file, including
    the one that sets the lock, updates the integrity seal
    ({!integrity_ok}); an accepted write to a locked file never does. *)

val read_reg : t -> addr:int -> (int, string) result

val hard_reset : t -> unit
(** Clears everything, budgets included, and the lock — models a power
    cycle with re-provisioning, not something reachable from software. *)

val integrity_ok : t -> bool
(** The register file keeps a shadow copy of both approved lists (their
    2048-bit standard-ID bitmaps and their extended IDs), of the budgets
    (not their grants) and of the control bits.  Only the authorised
    paths update it: a successful {!write_reg} or {!load_budgets} to a
    file that was not locked before the write, and {!hard_reset}.
    [integrity_ok] compares the live file with the shadow.
    [false] therefore means the file was altered out of band — a bit flip
    or glitch attack on the approved-list RAM — and the engine's gates
    must fail closed (deny everything) rather than enforce a corrupted
    policy.  Unlike a digest, the comparison cannot collide.

    A locked file accepts only the idempotent CTRL rewrite, and that write
    does not update the shadow: otherwise it would bless a change made out
    of band since the lock.

    Both of the engine's gates ({!Engine.gate_rx} and {!Engine.gate_tx})
    call this on every frame, before any list lookup, and every call reads
    every byte of both live lists and budgets: there is no cached
    verdict and no dirty flag, because an out-of-band write would update
    neither.  It reads the
    bitmaps in place, one [memcmp] per list ({!Approved_list.equal}), and
    allocates nothing while the lists hold no extended IDs (the
    [hpe/registers/integrity_ok] row of [bench perf]). *)
