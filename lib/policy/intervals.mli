(** Sorted disjoint inclusive integer intervals with binary-search
    membership.

    The compiled decision table ({!Table}) lowers every rule's message-ID
    ranges into one of these, and the verifier's regions ({!Region}) are
    built on them, so a membership probe is [O(log n)] in the number of
    disjoint ranges regardless of how wide they are — a bitset would pay
    in memory for wide ranges, a per-ID hash table in population time.  Values are immutable; [add]/[remove] rebuild, which is fine for
    compile-/provisioning-time mutation and keeps the hot [mem] path a
    pure array probe. *)

type t

val empty : t

val of_ranges : (int * int) list -> t
(** Build from inclusive [(lo, hi)] pairs in any order; overlapping and
    adjacent ranges are merged.  Pairs with [hi < lo] are rejected.
    @raise Invalid_argument on a reversed pair or negative bound. *)

val mem : t -> int -> bool
(** Binary search over the disjoint ranges. *)

val add : t -> lo:int -> hi:int -> t
(** Union with [lo..hi] (inclusive), re-normalising.
    @raise Invalid_argument as {!of_ranges}. *)

val remove : t -> lo:int -> hi:int -> t
(** Subtract [lo..hi], splitting any straddling range. *)

val is_empty : t -> bool

val equal : t -> t -> bool
(** Set equality.  The normal form is unique, so this is structural. *)

(** [union], [inter] and [diff] each walk both operands' ranges once, in
    order: linear in the number of ranges. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** Elements of the first set not in the second. *)

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)

val complement : t -> lo:int -> hi:int -> t
(** Elements of [lo..hi] (inclusive) not in the set.  Elements of the set
    outside [lo..hi] are dropped, not preserved.
    @raise Invalid_argument on a reversed pair or negative bound. *)

val cardinal : t -> int
(** Total number of integers covered (sum of range widths). *)

val ranges : t -> (int * int) list
(** The normal form: sorted, disjoint, non-adjacent inclusive pairs. *)

val pp : Format.formatter -> t -> unit
