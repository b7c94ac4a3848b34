(** Policy evaluation engine: the configurable "policy engine" of the paper,
    shared by the software (SELinux-style) and hardware (HPE) enforcement
    paths, which compile their own tables from the same {!Ir.db}. *)

type strategy = Table.strategy =
  | Deny_overrides
      (** any matching deny wins over any matching allow (default; this is
          the fail-safe composition used for Table I) *)
  | Allow_overrides  (** any matching allow wins over any matching deny *)
  | First_match  (** the earliest matching rule in source order decides *)

type mode = [ `Interpreted | `Compiled ]
(** [`Interpreted] scans the per-asset rule list on every decision;
    [`Compiled] (the default) lowers the database into an indexed
    {!Table} at creation / {!swap_db} time so the hot path is a single
    hashed lookup.  Observable semantics are identical. *)

type outcome = {
  decision : Ast.decision;
  matched : Ir.rule option;  (** rule that determined the decision, if any *)
  from_cache : bool;
}

type t

exception Unavailable
(** Raised by {!decide}/{!permitted} while the engine is {!stalled}: a
    stalled engine answers nothing, and callers must treat "no answer" as
    deny (fail closed) or escalate to their degradation path — never
    assume allow. *)

val set_stalled : t -> bool -> unit
(** Fault injection: mark the engine stalled (crashed process, partitioned
    service, wedged coprocessor) or recovered.  While stalled every
    decision raises {!Unavailable}; introspection ({!db}, {!stats}) stays
    readable, as a post-mortem would be. *)

val stalled : t -> bool

val create :
  ?strategy:strategy ->
  ?cache:bool ->
  ?cache_capacity:int ->
  ?mode:mode ->
  ?obs:Secpol_obs.Registry.t ->
  Ir.db ->
  t
(** [cache] (default [true]) memoises decisions per distinct request in a
    table keyed by {!Ir.Request}.  The cache is bounded: once it holds
    [cache_capacity] entries (default 8192) it is flushed in full and the
    flush is counted in {!stats}, so unbounded request diversity (fuzzing,
    long simulations) cannot grow it without limit.

    [obs] attaches the engine to a telemetry registry: the decision and
    cache counters are exported under [policy.engine.*], every decision's
    latency is observed into the [policy.engine.decide_ns] histogram
    (timed with the registry clock), and cache flushes / database swaps
    land in the registry's event trace.  Without [obs] the engine keeps
    counting — counters are single mutable words — but takes no clock
    readings and allocates nothing for telemetry on the decision path.
    @raise Invalid_argument if [cache_capacity <= 0]. *)

val of_table :
  ?cache:bool ->
  ?cache_capacity:int ->
  ?obs:Secpol_obs.Registry.t ->
  Table.t ->
  Ir.db ->
  t
(** An engine over a {e pre-compiled, shared} decision table, skipping the
    per-engine compile.  [db] must be the database [table] was compiled
    from (it backs introspection and the interpreted index); the strategy
    is taken from the table.  The table is never mutated — it is frozen
    after {!Table.compile} — so one table can back many engines at once,
    including engines in different OCaml domains: all mutable state (the
    decision cache, rate-limit budgets, counters) is private to each
    engine.  This is the constructor the shard-per-domain layer
    ({!Secpol_par}) uses: compile once, then hand every shard the same
    table.  {!swap_db} on such an engine compiles a fresh private table
    and detaches from the shared one (which other engines keep using
    unaffected).
    @raise Invalid_argument if [cache_capacity <= 0]. *)

val strategy : t -> strategy

val mode : t -> mode

val db : t -> Ir.db

val table : t -> Table.t option
(** The compiled decision table the engine decides over; [None] in
    interpreted mode.  Read-only: tables are frozen once compiled, so a
    caller may build further engines over it with {!of_table} (which
    share no mutable state with this one). *)

val table_stats : t -> Table.stats option
(** Shape of the compiled decision table; [None] in interpreted mode. *)

val decide : ?now:float -> t -> Ir.request -> outcome
(** [now] (seconds, default [0.]) drives behavioural rate limits: an allow
    rule with [rate n per w] can ground at most [n] Allow decisions per
    subject within any sliding [w]-millisecond window; once exhausted it is
    skipped and evaluation falls through (usually to [default deny]).  The
    budget is consumed only when the rule actually produces the decision —
    matching alongside a winning deny costs nothing.  Requests touching
    rate-limited assets bypass the decision cache (their outcome is
    time-dependent). *)

val permitted : ?now:float -> t -> Ir.request -> bool
(** [decide] projected to a boolean. *)

val decide_batch : t -> Batch.t -> out:Ast.decision array -> unit
(** The bulk-traffic fast path: decide every request of the batch,
    writing request [i]'s decision into [out.(i)] ([out] is caller-owned
    and must hold at least {!Batch.length} elements).  Decisions — and
    rate-budget consumption — are exactly those of calling {!decide} on
    each request in batch order with its [now] timestamp; the decision
    counters in {!stats} advance identically.

    What batch decisions give up for speed: no per-request matched-rule
    attribution or [from_cache] flag (use {!decide} when attribution
    matters), and the decision cache is bypassed — against a compiled
    table a batched decision is already one open-addressed probe, which
    is what a cache hit costs, without the insertion bookkeeping.

    Allocation contract: against a compiled table, the steady-state
    per-request cost is {e zero} minor-heap words — the batch columns,
    dispatch probes and decision counters are all flat-array or
    single-word operations (pinned by a [Gc.minor_words] test).  O(1)
    per-batch costs remain: the latency observation when [obs] is
    attached, interning a mode string the batch memo has not seen, and
    rate-limited rules allocate per evaluation (their budget table is
    keyed by subject).  In interpreted mode the batch path is a parity
    loop over {!decide}'s resolver and allocates per request.
    @raise Unavailable while the engine is stalled.
    @raise Invalid_argument when [out] is shorter than the batch. *)

val swap_db : t -> Ir.db -> unit
(** Hot-swap the policy database (a policy update); recompiles the decision
    table in compiled mode and flushes the cache. *)

val flush_cache : t -> unit

type stats = {
  decisions : int;
  allows : int;
  denies : int;
  cache_hits : int;
  cache_misses : int;
  cache_flushes : int;  (** times the bounded cache was emptied at capacity *)
}

val stats : t -> stats

val pp_outcome : Format.formatter -> outcome -> unit
