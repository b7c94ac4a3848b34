(** Shard-per-domain policy decision serving.

    The parallel execution model of the layer: the policy database is
    compiled {e once} into an immutable {!Secpol_policy.Table}, shared
    read-only by every domain; each domain then owns a fully private
    {!Secpol_policy.Engine} (its own rate budgets and counters) and a
    private {!Secpol_obs.Registry}, and serves only the slice of the
    workload that {!Partition} routes to it.  Nothing mutable crosses a
    domain boundary, so the hot path takes no locks at all.

    Because the partitioner keeps every piece of per-key mutable state
    (rate budgets keyed by [(rule, subject)]) inside a single shard, and
    each shard sees its requests in input order, the sharded run is
    decision-for-decision identical to {!run_sequential} — the qcheck
    harness in [test/test_par.ml] pins this. *)

type stats = {
  domains : int;
  served : int;  (** total requests decided *)
  per_shard : int array;  (** requests decided by each shard *)
  elapsed_s : float;  (** wall-clock seconds (not CPU time) *)
  throughput : float;  (** decisions per wall-clock second *)
  engine : Secpol_policy.Engine.stats;  (** summed across shards *)
}

type result = {
  outcomes : Secpol_policy.Engine.outcome array;
      (** one per request, in input order *)
  registry : Secpol_obs.Registry.t;
      (** per-shard registries merged ({!Secpol_obs.Registry.merge_into}) *)
  stats : stats;
}

val run :
  ?domains:int ->
  ?key:Partition.key ->
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  result
(** [run db work] decides every [(now, request)] pair of [work].
    [domains] (default 1) worker domains are spawned, each serving the
    shard {!Partition.assign} gives it under [key] (default
    {!Partition.Subject}).  [strategy] is that of
    {!Secpol_policy.Engine.create}.  Timestamps must be non-decreasing
    per partition key (see {!Secpol_policy.Rate_window}).
    @raise Invalid_argument when [domains < 1]. *)

val run_sequential :
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  result
(** The single-engine baseline: same compiled table, one engine, no
    spawned domain.  Reference semantics for {!run}. *)

type batch_result = {
  decisions : Secpol_policy.Ast.decision array;
      (** one per request, in input order *)
  registry : Secpol_obs.Registry.t;
  stats : stats;
}

val run_batch :
  ?domains:int ->
  ?key:Partition.key ->
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  batch_result
(** [run] over the batched decision path: each shard packs its whole
    slice into a {!Secpol_policy.Batch} struct-of-arrays arena and serves
    it with one {!Secpol_policy.Engine.decide_batch} call, so the
    per-request work inside a shard is the allocation-free column sweep
    rather than a per-request [decide] (and outcome record).  Decisions
    are identical to {!run}'s [outcome.decision] for the same inputs;
    what the batch path gives up is per-request matched-rule attribution.
    @raise Invalid_argument when [domains < 1]. *)

val run_batch_sequential :
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  batch_result
(** Single-engine, no-spawn reference for {!run_batch} — one arena, one
    [decide_batch] call over the whole workload. *)
