(** Deterministic traffic partitioning for shard-per-domain serving.

    The parallel layer never shares mutable enforcement state between
    domains; instead the {e partitioner} routes every piece of traffic to
    the one shard that owns its state.  For policy requests the unit of
    mutable state is the rate budget, keyed by [(rule, subject)] in
    {!Secpol_policy.Engine}, so [secpold] and [bench parscale] route each
    row of a {!Pool.decide} by subject: all of a subject's requests land
    in one shard.  This is the paper's natural slicing — one enforcement
    engine per CAN node, each node owning its own budgets (the subject
    {e is} the node).

    Hashing is FNV-1a (32-bit), implemented here rather than borrowed from
    [Hashtbl.hash]: the shard assignment is part of the sharding contract
    (per-shard telemetry, replayable workloads), so it must be stable
    across runs, architectures and compiler versions. *)

val hash_string : string -> int
(** 32-bit FNV-1a, in [\[0, 2^32)]. *)

val shard_of_string : shards:int -> string -> int
(** [hash_string] reduced to [\[0, shards)].
    @raise Invalid_argument when [shards < 1]. *)
