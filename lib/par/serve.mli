(** Shard-per-domain policy decision serving over a {!Pool}.

    The policy database is compiled {e once} into an immutable
    {!Secpol_policy.Table}, shared read-only by every domain; each
    worker of a fresh {!Pool} owns a fully private
    {!Secpol_policy.Engine} (its own rate budgets and counters) and a
    private {!Secpol_obs.Registry}, and serves only the slice of the
    workload that {!Partition.assign_by} routes to it by subject.
    Nothing mutable crosses a domain boundary, so the hot path takes no
    locks at all.

    Each shard's slice is one pool job in [secpold]'s job shape: packed
    into a {!Secpol_policy.Batch} arena and decided by one
    {!Secpol_policy.Engine.decide_batch} call.  Because rate budgets are
    keyed by [(rule, subject)], every budget lives in a single shard, and
    each shard sees its requests in input order, so a sharded run is
    decision-for-decision identical to one engine deciding the whole
    workload in order — the qcheck harness in [test/test_par.ml] pins
    this. *)

type stats = {
  domains : int;
  served : int;  (** total requests decided *)
  per_shard : int array;  (** requests decided by each shard *)
  elapsed_s : float;  (** wall-clock seconds (not CPU time) *)
  throughput : float;  (** decisions per wall-clock second *)
  engine : Secpol_policy.Engine.stats;  (** summed across shards *)
}

type result = {
  decisions : Secpol_policy.Ast.decision array;
      (** one per request, in input order *)
  registry : Secpol_obs.Registry.t;
      (** per-shard registries merged ({!Secpol_obs.Registry.merge_into}) *)
  stats : stats;
}

val run :
  ?domains:int ->
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  result
(** [run db work] decides every [(now, request)] pair of [work] on a
    fresh pool of [domains] (default 1) workers, shut down before
    returning.  [strategy] is that of {!Secpol_policy.Engine.create}.
    Timestamps must be non-decreasing per subject (see
    {!Secpol_policy.Rate_window}).  [stats.elapsed_s] covers submitting
    the jobs, awaiting them and scattering the decisions back to input
    order; compile, partition and domain startup are excluded.
    @raise Invalid_argument when [domains < 1]. *)
