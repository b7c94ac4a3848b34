(** Semantic policy verification: symbolic analysis of the decision space.

    A policy's behaviour on one access {!cell} is a total function from
    the message dimension to decisions.  {!partition} computes that
    function exactly as a list of disjoint {!Region}s — no sampling — by
    scanning the strategy-folded rule list once, mirroring precisely what
    both the reference scan ({!Reference}) and the compiled {!Table}
    evaluate.  On top of the partitions:

    - {!analyse} measures default-decision completeness, {e proves}
      reference/compiled/symbolic agreement by evaluating the reference
      scan and the compiled engine at every region boundary under every
      reachable rate-budget state (SP014 on divergence), and finds dead
      rules (SP011) and mergeable modes (SP010);
    - {!diff} computes the exact decision-region delta between two policy
      versions (SP012 when an update widens an allow region), and {!gate}
      decides from it whether the update may ship;
    - threat-derived {!Secpol_threat.Obligation}s are checked against the
      partitions (SP013).

    Rate-limited allows are handled with an availability oracle: each
    budget state of a cell's rated rules is enumerated, so the analysis is
    exact in every state, not just the steady one. *)

type cell = { mode : string; subject : string; asset : string; op : Ir.op }
(** One access-decision cell: the message id is the remaining free
    dimension, analysed symbolically. *)

(** Decision class of a region: rate-limited allows are distinguished
    because they admit only bounded traffic and can fall through when
    exhausted. *)
type cls = Deny | Allow | Rated of Ast.rate

type segment = { region : Region.t; cls : cls; rule : Ir.rule option }
(** A maximal region decided by one rule ([None] = the policy default). *)

val cls_name : cls -> string

val strategy_name : Engine.strategy -> string

(** {2 Universe} *)

type universe = {
  modes : string list;
  subjects : string list;
  assets : string list;
}

val other : string
(** The synthetic universe member ["(other)"] standing for every name the
    policy does not mention — it exercises the compiled table's
    unknown-mode bit, the wildcard subject buckets and the pure-default
    asset path, and can never collide with a parsed identifier. *)

val universe :
  ?modes:string list ->
  ?subjects:string list ->
  ?assets:string list ->
  Ir.db ->
  universe
(** Universe of a policy: the given (or mentioned) names per dimension,
    sorted, each extended with {!other}. *)

val cells : universe -> cell list
(** All cells of the universe, in deterministic order, both operations. *)

(** {2 Symbolic partitions} *)

val partition : strategy:Engine.strategy -> Ir.db -> cell -> segment list
(** The cell's exact steady-state decision function (all rate budgets
    available): disjoint segments covering the whole message dimension,
    in strategy-folded rule order, default segment last.

    Staged: [partition ~strategy db] groups [db]'s rules by (asset, op)
    once, and each cell then reads only its own group.  Partitioning many
    cells of one db, apply it once and keep the result, e.g.
    [let p = Verify.partition ~strategy db in List.map p cells].  Nothing
    is kept across such applications. *)

val scope : Ir.db -> Ir.rule -> cell list * Region.t
(** A rule's scope: the cells of the policy's own universe
    ([universe db], never an override) that {!partition} reads the rule
    in, in {!cells} order, and the rule's message region.  Lint's
    rule-pair codes (SP001, SP002, SP004, SP007) compare rules by these
    scopes alone.

    Staged like {!partition}: [scope db] indexes [db] and walks its
    universe once, and each rule of [db] is then a lookup. *)

val class_map : segment list -> (cls * Region.t) list
(** Canonical semantic form: union of regions per decision class, ordered
    by class — two cells behave identically iff their class maps are
    equal. *)

val class_maps_equal : (cls * Region.t) list -> (cls * Region.t) list -> bool

(** {2 Reports} *)

type completeness = {
  cells : int;
  explicit_cells : int;  (** no point falls to the default *)
  partial_cells : int;  (** some message ids fall to the default *)
  silent_cells : int;  (** every point falls to the default *)
  default : Ast.decision;
  default_points : int;  (** total message points decided by the default *)
}

type proof = {
  cells : int;
  assignments : int;  (** rate-oracle states enumerated *)
  witnesses : int;  (** boundary requests evaluated on both engines *)
  unreachable : int;
      (** oracle states no concrete request sequence could reproduce *)
  truncated : int;  (** cells whose oracle powerset was truncated *)
  divergences : Diagnostic.t list;  (** SP014; empty on a proved policy *)
}

val proved : proof -> bool

type violation = {
  subject : string;
  mode : string;
  region : Region.t;  (** the message region the policy allows *)
  rated : bool;  (** every allowing segment is rate-limited *)
  rules : int list;  (** allowing rule indices; [[]] = default allow *)
}

type obligation_status = {
  obligation : Secpol_threat.Obligation.t;
  violations : violation list;
}

val discharged : obligation_status -> bool

type report = {
  db : Ir.db;
  strategy : Engine.strategy;
  universe : universe;
  completeness : completeness;
  proof : proof;
  mergeable : string list list;  (** SP010 mode classes *)
  dead_rules : int list;  (** SP011 rule indices *)
  obligations : obligation_status list;
  diagnostics : Diagnostic.t list;
      (** SP010 + SP011 + SP013 + SP014, sorted *)
}

val analyse :
  ?strategy:Engine.strategy ->
  ?modes:string list ->
  ?subjects:string list ->
  ?assets:string list ->
  ?obligations:Secpol_threat.Obligation.t list ->
  Ir.db ->
  report
(** The full semantic verification (strategy defaults to
    [Deny_overrides]).  Engine agreement is proved by construction of the
    partitions {e and} re-checked concretely: both real engines are
    evaluated at every region corner, with rate budgets drained to match
    each oracle state. *)

(** {2 Differential update analysis} *)

type direction =
  | Widened  (** the new version is strictly more permissive here *)
  | Tightened  (** strictly less permissive *)
  | Changed  (** incomparable (two different rate limits) *)

type delta = {
  cell : cell;
  before : cls;
  after : cls;
  region : Region.t;
  direction : direction;
}

type diff_report = {
  old_db : Ir.db;
  new_db : Ir.db;
  strategy : Engine.strategy;
  universe : universe;  (** the one universe both versions were compared on *)
  deltas : delta list;
  diagnostics : Diagnostic.t list;  (** SP012, one per widened delta *)
}

val diff :
  ?strategy:Engine.strategy ->
  ?modes:string list ->
  ?subjects:string list ->
  ?assets:string list ->
  Ir.db ->
  Ir.db ->
  diff_report
(** Exact decision-space difference over the union of both versions'
    universes.  Empty iff the versions are semantically identical; a
    default-decision change surfaces on the synthetic {!other} asset. *)

val direction_name : direction -> string

val count_direction : direction -> diff_report -> int

(** {2 Update gate} *)

type gate = {
  widened : int;  (** decision regions the update makes more permissive *)
  tightened : int;
  changed : int;  (** incomparable deltas (e.g. two different rates) *)
  violations_before : int;  (** obligation violations under the old version *)
  violations_after : int;  (** ... and under the new *)
  passed : bool;  (** [widened = 0] and no obligation regression *)
  refusal : string option;
      (** why the gate refused: the first SP012 message, naming the first
          widened flow; [None] when [passed] *)
}

val gate : ?obligations:Secpol_threat.Obligation.t list -> diff_report -> gate
(** The one decision on whether an update may ship.  It passes when the
    diff has no widened delta and the new version has no more
    [obligations] violations (default none) than the old.  Both versions
    are checked against the obligations over the diff's {e one} universe,
    by the obligation check alone; the counts equal those of {!analyse}
    over that universe.  With no obligations it only counts the diff. *)

(** {2 Rendering} *)

val pp_cell : Format.formatter -> cell -> unit

val pp_segment : Format.formatter -> segment -> unit

val pp_delta : Format.formatter -> delta -> unit

val pp_report : Format.formatter -> report -> unit

val pp_diff_report : Format.formatter -> diff_report -> unit

val report_to_json : report -> Json.t

val diff_to_json : diff_report -> Json.t
