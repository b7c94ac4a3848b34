(** A persistent domain pool: the one place [lib/par] starts domains.

    [secpold] keeps one pool for its lifetime, so domain startup never
    lands on a request; {!Serve.run} builds a fresh one per call and
    keeps its startup off the clock.  The pool spawns one pinned worker
    per shard {e once}; each worker owns a private
    {!Secpol_policy.Engine.of_table} engine and
    {!Secpol_obs.Registry} over the shared immutable
    {!Secpol_policy.Table}, and drains jobs from its own request ring.

    {b Hot swap (RCU-style).}  The current policy generation — epoch,
    compiled table, source db — lives behind a single atomic pointer.
    {!swap} publishes a new generation in one store; every worker
    re-reads the pointer at job boundaries and rebinds its engine when
    the epoch moved.  Decisions in flight complete against the
    generation they started on; no decision ever sees a half-swapped
    policy, no reader ever blocks, and nothing is dropped.  Telemetry
    survives the swap: the outgoing engine's counters are folded into
    the worker's cumulative registry before rebinding.

    {b Admission.}  {!try_submit} never blocks: a full ring returns
    [None] and the caller decides — the daemon retries briefly, then
    sheds with a fail-safe deny, mirroring the gateway's retry-then-shed
    discipline.  Jobs that {e were} admitted are always executed, even
    during shutdown. *)

type t

type worker
(** A worker's view of itself, passed to every job it executes: the
    shard's private engine and telemetry.  Only valid inside the job —
    never stash it. *)

type 'a ticket
(** A pending result.  Resolved exactly once by the worker; awaiting
    after resolution returns immediately. *)

val create :
  ?queue_capacity:int ->
  domains:int ->
  Secpol_policy.Table.t ->
  Secpol_policy.Ir.db ->
  t
(** Spawn [domains] pinned workers over a compiled table and its source
    db (generation 1).  [queue_capacity] (default 1024, rounded up to a
    power of two) bounds each shard's request ring — the backpressure
    point.  Returns only once every worker is parked in its serve loop,
    so first-request latency never includes domain startup.
    @raise Invalid_argument when [domains < 1] or [queue_capacity < 1]. *)

val domains : t -> int

val epoch : t -> int
(** Epoch of the currently published generation (starts at 1). *)

val table : t -> Secpol_policy.Table.t

val db : t -> Secpol_policy.Ir.db

val swap : t -> Secpol_policy.Table.t -> Secpol_policy.Ir.db -> int
(** Publish a new policy generation; returns its epoch.  The caller
    compiles (and gates) the table off-path first — by the time [swap]
    returns, every job submitted afterwards is decided under the new
    generation.  Lock-free; concurrent swaps serialise on the CAS. *)

val try_submit : t -> shard:int -> (worker -> 'a) -> 'a ticket option
(** Enqueue a job on a shard's ring.  [None] means the ring is full
    (shed or retry — caller's choice) or {!shutdown} has begun;
    [Some ticket] means the job {e will} run, in submission order for
    that shard, even if a shutdown from another domain races the
    submit.
    @raise Invalid_argument when [shard] is out of range. *)

val await : 'a ticket -> 'a
(** Block until the job completes; re-raises the job's exception. *)

val await_timeout : 'a ticket -> timeout_s:float -> ('a, exn) result option
(** Like {!await} with a deadline: [None] when the deadline passed with
    the job still pending (the job is {e not} cancelled — a later await
    can still collect it).  Polls at ~0.5 ms granularity, which only
    matters on the already-degraded path. *)

val worker_shard : worker -> int

val worker_engine : worker -> Secpol_policy.Engine.t
(** The shard's current private engine — rebound on epoch change, so
    hold it no longer than the current job.  Exposed for jobs that need
    more than deciding (tests inject stalls through it). *)

val worker_epoch : worker -> int
(** Generation epoch the worker's engine is currently bound to. *)

val worker_snapshot : worker -> Secpol_policy.Engine.stats * Secpol_obs.Registry.t
(** Cumulative engine stats and a freshly merged registry copy for this
    shard — pre-swap generations included.  Run it {e as a job} on the
    shard so it reads quiesced state. *)

val shutdown : t -> unit
(** Stop accepting jobs, drain every ring, join every worker.
    Idempotent.  Jobs admitted before shutdown still execute. *)
