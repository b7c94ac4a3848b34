(** Fleet-scale policy-update campaigns: the one fleet rollout.

    {!Ota.delay} draws {e when} a new policy version lands on each
    vehicle; a campaign executes the whole update story end to end and
    measures what the update buys: every vehicle is served its policy
    decisions before, during and after the rollout by the version it has
    installed, and the campaign records how long each vehicle stays
    exposed to a Table-I threat that goes live mid-run.

    {b Deliveries.}  An update must raise the policy version; an older
    or equal one is refused before any vehicle is touched.  A delivery
    arrives tampered with the probability [adoption.corruption]: the
    vehicle runs the check its install makes first
    ({!Secpol_policy.Update.verify} on a tampered copy of the new
    version's bundle), refuses it, and waits for a clean copy over the
    same channel ({!Ota.delay}).  So every vehicle ends on one of the two
    versions rolled out.

    {b Sharing.}  The fleet holds exactly one compiled
    {!Secpol_policy.Table} per policy version — a million vehicles over a
    two-version rollout share two tables.  A campaign asks a few dozen
    fixed requests ({!traffic}) over and over, so it resolves each one
    against each table once ({!Secpol_policy.Table.resolve}); the answers
    are immutable and every shard reads the same ones.  Vehicles are
    sharded across OCaml domains in contiguous id ranges: domain [d]
    takes ids [\[d * fleet / domains, (d + 1) * fleet / domains)].

    {b Counted runs.}  A vehicle's adoption tick splits its ticks into
    two runs, one per installed version.  A request whose answer no
    rate-limited allow matches is fixed, and a run {e counts} its fixed
    answers in closed form: prefix sums over the benign cycle, the first
    tick of the threat window, the lattice of burst ticks.  Only a
    request that a rated allow matches (the hardened lock-command limit)
    is visited, in tick order, on the windows of the vehicle being
    decided for ({!Secpol_vehicle.Instance.decide}), so the shared tables
    never conflate two vehicles' budgets.  The report is the one a walk
    of every tick of every vehicle gives.

    {b Gating.}  The rollout is staged (canary, then cohort, then fleet)
    and every stage promotion is gated by the semantic verifier's one
    update gate ({!Secpol_policy.Verify.gate}): the update must not widen
    any decision region and must not add violations of the Table-I
    obligations, both versions counted over the diff's one universe.  A
    refused gate halts the rollout before the first stage — the fleet
    keeps answering traffic on the old version, which is exactly what the
    mitigation histogram then shows.

    {b Determinism.}  Per-vehicle randomness is derived from
    [(seed, vehicle id)] ({!Secpol_sim.Rng.keyed}, so neighbouring
    vehicles draw unrelated streams), stage starts are absolute campaign days and the
    gate is a static property of the two versions, so shards never
    communicate and the report is identical for every [domains] value. *)

type stage = {
  name : string;
  fraction : float;  (** cumulative fleet fraction covered once live *)
  start_day : float;  (** campaign day the stage starts updating *)
}

type config = {
  adoption : Ota.params;
      (** the fleet size and every vehicle's delivery: the staged
          rollout's delay over the air after its stage starts, and the
          recall baseline's *)
  seed : int64;
  domains : int;
  stages : stage list;  (** ordered by [start_day], fractions ascending *)
  horizon_days : float;
  tick_days : float;  (** decision-traffic resolution *)
  plan : Secpol_faults.Plan.t;
      (** fault schedule, read in days; its forged-frame flood
          ({!Secpol_faults.Plan.threat_window}) is the mid-run threat *)
  threat_id : string;  (** Table-I row the flood realises *)
  lock_bursts_every : int;
      (** a vehicle emits a 3-frame lock-command burst every this many
          ticks (exercises per-vehicle budgets); 0 disables *)
}

val default_config :
  ?fleet:int -> ?seed:int64 -> ?domains:int -> ?quick:bool -> unit -> config
(** Canary 1% at day 0, cohort 10% at day 2, full fleet at day 5;
    threat live from day 6; 30-day horizon; {!Ota.default_params} with
    [fleet] vehicles.  [quick] (default false) halves the tick resolution
    for smoke runs.  Defaults: [fleet] 100_000, [seed] 42, [domains] 1. *)

(** {2 Verifier gate} *)

type gate = Secpol_policy.Verify.gate = {
  widened : int;  (** decision regions the update makes more permissive *)
  tightened : int;
  changed : int;  (** incomparable deltas (e.g. two different rates) *)
  violations_before : int;  (** obligation violations under the old version *)
  violations_after : int;  (** ... and under the new *)
  passed : bool;  (** [widened = 0] and no obligation regression *)
  refusal : string option;
      (** why the gate refused, naming the first widened flow; [None] when
          passed *)
}

val gate :
  old_db:Secpol_policy.Ir.db -> new_db:Secpol_policy.Ir.db -> unit -> gate
(** The static promotion gate: {!Secpol_policy.Verify.gate} over
    {!Secpol_policy.Verify.diff} of the versions, with the Table-I
    obligations ({!Secpol_vehicle.Threat_catalog.obligations}, entry
    points mapped to subjects as [secpolc verify --vehicle] does). *)

(** {2 Running and reporting} *)

type channel_report = {
  mitigated : int;  (** vehicles whose attack probe was denied in time *)
  never : int;  (** vehicles still exposed at the horizon *)
  p50_days : float;  (** 0 when nothing was mitigated *)
  p99_days : float;
  mean_days : float;
}

type stage_report = {
  stage : stage;
  gate_passed : bool;  (** gate verdict at this stage's promotion *)
  started : bool;
  vehicles : int;  (** vehicles assigned to the stage *)
  adopted : int;  (** of those, on the new version by the horizon *)
}

type report = {
  config : config;
  threat_title : string;
  threat_day : float;
  gate : gate;
  stages : stage_report list;
  versions : (int * int) list;  (** version -> vehicle count at horizon *)
  decisions : int;
      (** benign and attack-probe decisions served, most of them fixed
          answers counted per run rather than visited (lock bursts are
          counted in [lock_allowed] and [lock_denied]) *)
  benign_denied : int;  (** designed traffic denied — 0 on a sound update *)
  lock_allowed : int;  (** burst frames admitted by per-vehicle budgets *)
  lock_denied : int;  (** burst frames shaped off by per-vehicle budgets *)
  tampered : int;
      (** the rollout's tampered deliveries, each refused and retried *)
  ota : channel_report;  (** time-to-mitigation under the staged OTA *)
  recall : channel_report;  (** ... under the recall baseline *)
  speedup_p50 : float;
      (** recall p50 over OTA p50, the latter clamped up to one tick
          (the measurement resolution) *)
  elapsed_s : float;
  throughput_per_s : float;
      (** [decisions] over [elapsed_s]: decisions served, most of them
          counted, not visited, so it is no decision rate and cannot be
          compared with a rate read when every tick was walked *)
}

val traffic : config -> (Secpol_policy.Ir.request array, string) result
(** The fleet's distinct requests, in the order {!run} resolves them:
    the designed normal-mode traffic (each message written by its first
    producer and read by its first consumer, lock-command writes left
    out), then the attack probe, then the lock-burst frame.  Every
    decision a campaign serves is one of them.  Errors as {!run} does on
    an invalid configuration. *)

val run :
  ?old_policy:Secpol_policy.Ast.policy ->
  ?new_policy:Secpol_policy.Ast.policy ->
  config ->
  (report, string) result
(** Execute a campaign rolling the fleet from [old_policy] (default
    {!Secpol_vehicle.Policy_map.baseline} v1, which leaves row 14 open)
    to [new_policy] (default {!Secpol_vehicle.Policy_map.hardened} v2,
    which closes it).  Errors on an invalid configuration, a plan
    without a threat window, an update that does not raise the version,
    or a tampered copy that passed the integrity check; a {e refused
    gate} is not an error — the report carries the verdict and the
    unmitigated fleet. *)

val to_json : report -> Secpol_policy.Json.t
(** Stable machine-readable form ([schema] 1; [tampered] is not in it).
    [elapsed_s] and [throughput_per_s] are the only fields that vary
    between identical runs. *)
