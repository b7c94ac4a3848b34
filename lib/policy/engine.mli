(** Policy evaluation engine: the configurable "policy engine" of the paper,
    shared by the software (SELinux-style) and hardware (HPE) enforcement
    paths, which compile their own tables from the same {!Ir.db}. *)

type strategy = Table.strategy =
  | Deny_overrides
      (** any matching deny wins over any matching allow (default; this is
          the fail-safe composition used for Table I) *)
  | Allow_overrides  (** any matching allow wins over any matching deny *)
  | First_match  (** the earliest matching rule in source order decides *)

type outcome = {
  decision : Ast.decision;
  matched : Ir.rule option;  (** rule that determined the decision, if any *)
}

type t

exception Unavailable
(** Raised by {!decide}/{!permitted}/{!decide_batch} while the engine is
    {!stalled}: a stalled engine answers nothing, and callers must treat
    "no answer" as deny (fail closed) or escalate to their degradation
    path — never assume allow. *)

val set_stalled : t -> bool -> unit
(** Fault injection: mark the engine stalled (crashed process, partitioned
    service, wedged coprocessor) or recovered.  While stalled every
    decision raises {!Unavailable}; introspection ({!db}, {!stats}) stays
    readable, as a post-mortem would be. *)

val stalled : t -> bool

val create :
  ?strategy:strategy -> ?cache:bool -> ?obs:Secpol_obs.Registry.t -> Ir.db -> t
(** Compile [db] into a {!Table} for [strategy] (default
    [Deny_overrides]) and build an engine over it ({!of_table}).

    [cache] is accepted and ignored.  The engine has no decision cache;
    the argument stays only for callers that still pass it, and every
    decision goes through the compiled table.

    [obs] attaches the engine to a telemetry registry: the decision
    counters are exported under [policy.engine.*], every decision's
    latency is observed into the [policy.engine.decide_ns] histogram
    (timed with the registry clock), and database swaps land in the
    registry's event trace.  Without [obs] the engine keeps counting —
    counters are single mutable words — but takes no clock readings and
    allocates nothing for telemetry on the decision path. *)

val of_table : ?obs:Secpol_obs.Registry.t -> Table.t -> Ir.db -> t
(** An engine over a {e pre-compiled, shared} decision table, skipping the
    per-engine compile.  [db] must be the database [table] was compiled
    from (it backs introspection); the strategy is taken from the table.
    The table is never mutated — it is frozen after {!Table.compile} — so
    one table can back many engines at once, including engines in
    different OCaml domains: all mutable state (rate-limit budgets,
    counters) is private to each engine.  This is the constructor the
    shard-per-domain layer ({!Secpol_par}) uses: compile once, then hand
    every shard the same table.  {!swap_db} on such an engine compiles a
    fresh private table and detaches from the shared one (which other
    engines keep using unaffected). *)

val strategy : t -> strategy

val db : t -> Ir.db

val table : t -> Table.t
(** The compiled decision table the engine decides over.  Read-only:
    tables are frozen once compiled, so a caller may build further
    engines over it with {!of_table} (which share no mutable state with
    this one). *)

val table_stats : t -> Table.stats
(** Shape of the compiled decision table. *)

val decide : ?now:float -> t -> Ir.request -> outcome
(** [now] (seconds, default [0.]) drives behavioural rate limits: an allow
    rule with [rate n per w] can ground at most [n] Allow decisions per
    subject within any sliding [w]-millisecond window; once exhausted it is
    skipped and evaluation falls through (usually to [default deny]).  The
    budget is consumed only when the rule actually produces the decision —
    matching alongside a winning deny costs nothing. *)

val permitted : ?now:float -> t -> Ir.request -> bool
(** [decide] projected to a boolean. *)

val decide_batch : t -> Batch.t -> out:Ast.decision array -> unit
(** The bulk-traffic fast path: decide every request of the batch,
    writing request [i]'s decision into [out.(i)] ([out] is caller-owned
    and must hold at least {!Batch.length} elements).  Decisions — and
    rate-budget consumption — are exactly those of calling {!decide} on
    each request in batch order with its [now] timestamp; the decision
    counters in {!stats} advance identically.

    What batch decisions give up for speed: per-request matched-rule
    attribution (use {!decide} when attribution matters).

    Allocation contract: the steady-state per-request cost is {e zero}
    minor-heap words — the batch columns, dispatch probes and decision
    counters are all flat-array or single-word operations (pinned by a
    [Gc.minor_words] test).  O(1) per-batch costs remain: the latency
    observation when [obs] is attached, interning a mode string the
    batch memo has not seen, and rate-limited rules allocate per
    evaluation (their budget table is keyed by subject).
    @raise Unavailable while the engine is stalled.
    @raise Invalid_argument when [out] is shorter than the batch. *)

val swap_db : t -> Ir.db -> unit
(** Hot-swap the policy database (a policy update): recompiles the
    decision table for the engine's strategy and resets every rate
    budget. *)

type stats = { decisions : int; allows : int; denies : int }

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Field-wise sum: the fold that totals per-shard or per-generation
    engine stats. *)

val stats : t -> stats

val pp_outcome : Format.formatter -> outcome -> unit
