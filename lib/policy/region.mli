(** Decision regions of the message dimension.

    A request's message coordinate is either absent ([msg_id = None]) or a
    29-bit CAN identifier, so a region is "does it include the id-less
    request" plus an {!Intervals} set over [0..max_id].  This is the shared
    symbolic message semantics: the semantic verifier (whose partitions
    the coverage lint reads and whose rule scopes the rule-pair lints
    compare) and the update differ reduce rule message clauses to regions
    and reason with set algebra instead of ad-hoc range walks. *)

type t = { none : bool; ids : Intervals.t }

val max_id : int
(** [0x1FFFFFFF], the top of the 29-bit extended CAN identifier space. *)

val empty : t

val full : t
(** The whole message dimension: the id-less request plus every id in
    [0..max_id]. *)

val all_ids : t
(** Every id in [0..max_id], excluding the id-less request. *)

val none_only : t
(** Only the id-less request. *)

val of_intervals : Intervals.t -> t
(** Ids only; does not include the id-less request. *)

val of_messages : Ast.msg_range list option -> t
(** The exact region a rule's message clause matches: [None] (no clause)
    matches {!full}; [Some ranges] matches only requests carrying an id
    inside the ranges — never the id-less request.  Mirrors
    {!Ir.message_matches} and the compiled table's matcher. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val inter : t -> t -> t

val union : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

val mem : t -> int option -> bool

val cardinal : t -> int
(** Number of ids covered, counting the id-less request as one point. *)

val to_ranges : t -> Ast.msg_range list
(** The id part as normalised AST ranges (sorted, merged). *)

val span : t -> (int * int) option
(** Lowest and highest covered id, ignoring the id-less point. *)

val witnesses : t -> int option list
(** Representative request coordinates: every interval endpoint, a
    midpoint for wide intervals, and [None] when the region includes the
    id-less request.  Evaluating a decision function at the witnesses of
    every region of a partition covers every boundary of the partition. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
