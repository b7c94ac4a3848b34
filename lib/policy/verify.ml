(* Semantic policy verification: symbolic analysis of the decision space.

   A policy's behaviour on one access cell — a (mode, subject, asset, op)
   combination — is a total function from the message dimension to
   decisions.  Instead of sampling that function, [partition] computes it
   exactly: one scan of the strategy-folded rule list carves the message
   space ({!Region}) into the regions each rule captures, and whatever is
   left falls to the default.  Everything else here is set algebra over
   those partitions:

   - [analyse] measures default-deny completeness (the partition is total
     by construction, so the default segment is computed, not guessed),
     proves that the reference scan ({!Reference}), the compiled engine
     and the symbolic partition agree by evaluating both deciders at every
     region boundary under every reachable rate-budget state (SP014 on any
     divergence), finds rules whose effective region is empty everywhere
     (SP011) and operating modes with identical decision functions
     (SP010);
   - [diff] computes the exact decision-region changes between two policy
     versions, flagging updates that widen an allow region (SP012);
   - threat-derived denial {!Secpol_threat.Obligation}s are checked
     against the same partitions (SP013).

   Rate-limited rules are the one behavioural wrinkle: an exhausted allow
   falls through to later rules.  The scan treats availability as an
   oracle bit per rated rule and enumerates the assignments, so the
   analysis is exact in every budget state, not just the steady state. *)

module Threat = Secpol_threat.Threat
module Obligation = Secpol_threat.Obligation

type cell = { mode : string; subject : string; asset : string; op : Ir.op }

type cls = Deny | Allow | Rated of Ast.rate

type segment = { region : Region.t; cls : cls; rule : Ir.rule option }

let cls_of_rule (r : Ir.rule) =
  match (r.decision, r.rate) with
  | Ast.Deny, _ -> Deny
  | Ast.Allow, None -> Allow
  | Ast.Allow, Some rate -> Rated rate

let cls_of_decision = function Ast.Allow -> Allow | Ast.Deny -> Deny

let decision_of_cls = function Deny -> Ast.Deny | Allow | Rated _ -> Ast.Allow

let permissive = function Deny -> false | Allow | Rated _ -> true

let cls_name = function
  | Deny -> "deny"
  | Allow -> "allow"
  | Rated r -> Printf.sprintf "allow rate %d/%dms" r.Ast.count r.Ast.window_ms

let strategy_name = function
  | Engine.Deny_overrides -> "deny-overrides"
  | Engine.Allow_overrides -> "allow-overrides"
  | Engine.First_match -> "first-match"

(* ------------------------------------------------------------------ *)
(* Universe                                                            *)
(* ------------------------------------------------------------------ *)

type universe = {
  modes : string list;
  subjects : string list;
  assets : string list;
}

(* Parser identifiers cannot contain parentheses, so this synthetic member
   can never collide with a policy name.  It stands for every mode the
   policy does not name (exercising the compiled table's unknown-mode
   bit), every subject no rule names (exercising the wildcard buckets) and
   every asset with no rules (the pure-default path). *)
let other = "(other)"

let named_modes (db : Ir.db) =
  List.concat_map
    (fun (r : Ir.rule) -> Option.value ~default:[] r.modes)
    db.rules
  |> List.sort_uniq String.compare

let with_other l =
  List.sort_uniq String.compare (List.filter (fun s -> s <> other) l)
  @ [ other ]

let universe ?modes ?subjects ?assets (db : Ir.db) =
  let pick given derived =
    match given with Some (_ :: _ as l) -> l | Some [] | None -> derived
  in
  {
    modes = with_other (pick modes (named_modes db));
    subjects = with_other (pick subjects (Ir.subjects db));
    assets = with_other (pick assets (Ir.assets db));
  }

let cells u =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun subject ->
          List.concat_map
            (fun asset ->
              List.map
                (fun op -> { mode; subject; asset; op })
                [ Ir.Read; Ir.Write ])
            u.assets)
        u.subjects)
    u.modes

(* ------------------------------------------------------------------ *)
(* Symbolic partition                                                  *)
(* ------------------------------------------------------------------ *)

(* A rule as the scans read it, its message region built once. *)
type entry = { ir : Ir.rule; msgs : Region.t }

(* A db's rules grouped by (asset, op), each group in source order.  An
   index lives for one call: [partition], [analyse], [diff] and [gate]
   each build one per db they read, and every cell then filters only its
   own group. *)
type index = {
  default : Ast.decision;
  buckets : (string * Ir.op, entry list) Hashtbl.t;
}

let index (db : Ir.db) =
  let buckets = Hashtbl.create 32 in
  List.iter
    (fun (r : Ir.rule) ->
      let e = { ir = r; msgs = Region.of_messages r.messages } in
      List.iter
        (fun op ->
          let key = (r.asset, op) in
          Hashtbl.replace buckets key
            (e :: Option.value ~default:[] (Hashtbl.find_opt buckets key)))
        (List.sort_uniq compare r.ops))
    (List.rev db.rules);
  { default = db.default; buckets }

let bucket ix asset op =
  Option.value ~default:[] (Hashtbl.find_opt ix.buckets (asset, op))

(* The rules of a cell's (asset, op) bucket that can decide it.  This is
   provably the set both engines consider: the compiled table's exact
   bucket filters the (asset, op) group by subject match, its wildcard
   bucket keeps exactly the any-subject rules, and mode matching (mask,
   unknown-mode bit or literal list) equals {!Ir.mode_matches} on every
   universe member. *)
let select entries (c : cell) =
  List.filter
    (fun e ->
      Ir.subject_matches e.ir.subjects c.subject
      && Ir.mode_matches e.ir.modes c.mode)
    entries

let applicable ix c = select (bucket ix c.asset c.op) c

(* A cell's partition reads, of each applicable rule, only its decision,
   region and rate, in order (never [idx] or [origin]): two rule lists
   equal in those decide every cell alike under one default.  Equal in
   subjects and modes too, two (asset, op) buckets select such lists for
   every cell. *)
let same_effect a b =
  a.ir.decision = b.ir.decision
  && a.ir.rate = b.ir.rate
  && Region.equal a.msgs b.msgs

let same_scope a b =
  same_effect a b
  && a.ir.subjects = b.ir.subjects
  && a.ir.modes = b.ir.modes

(* Fold the strategy into rule order exactly as {!Table.compile} does:
   after this, every strategy is "first taken rule wins". *)
let reorder strategy entries =
  match strategy with
  | Engine.First_match -> entries
  | Engine.Deny_overrides ->
      let d, a = List.partition (fun e -> e.ir.decision = Ast.Deny) entries in
      d @ a
  | Engine.Allow_overrides ->
      let d, a = List.partition (fun e -> e.ir.decision = Ast.Deny) entries in
      a @ d

(* One symbolic evaluation of a cell under a rate oracle: scan the folded
   rules, intersecting each with the space no earlier taken rule captured.
   Rules the oracle marks exhausted match without capturing (the engines
   skip them and fall through); their would-have-matched regions come back
   so a caller can reproduce the oracle state on a real engine by draining
   exactly those budgets.  The returned segments are disjoint and, with
   the default tail, cover the whole message dimension. *)
let scan ~strategy ~exhausted entries ~default =
  let rec go remaining taken skipped = function
    | [] ->
        let tail =
          if Region.is_empty remaining then []
          else
            [ { region = remaining; cls = cls_of_decision default; rule = None } ]
        in
        (List.rev taken @ tail, List.rev skipped)
    | { ir = r; msgs } :: rest ->
        let hit = Region.inter remaining msgs in
        if Region.is_empty hit then go remaining taken skipped rest
        else if List.mem r.idx exhausted then
          go remaining taken ((r, hit) :: skipped) rest
        else
          go
            (Region.diff remaining hit)
            ({ region = hit; cls = cls_of_rule r; rule = Some r } :: taken)
            skipped rest
  in
  go Region.full [] [] (reorder strategy entries)

let partition_in ~strategy ix c =
  fst (scan ~strategy ~exhausted:[] (applicable ix c) ~default:ix.default)

let partition ~strategy db = partition_in ~strategy (index db)

(* Canonical form of a partition for semantic comparison: the union of
   regions per decision class, keyed and ordered by class. *)
let class_map segments =
  let classes = List.sort_uniq compare (List.map (fun s -> s.cls) segments) in
  List.map
    (fun cls ->
      ( cls,
        List.fold_left
          (fun acc s -> if s.cls = cls then Region.union acc s.region else acc)
          Region.empty segments ))
    classes

let class_maps_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (c1, r1) (c2, r2) -> c1 = c2 && Region.equal r1 r2) a b

(* ------------------------------------------------------------------ *)
(* Rate oracles                                                        *)
(* ------------------------------------------------------------------ *)

let max_oracle_bits = 6

let prime_cap = 64

let subsets idxs =
  let n = List.length idxs in
  List.init (1 lsl n) (fun bits ->
      List.filteri (fun i _ -> bits land (1 lsl i) <> 0) idxs)

let rated_idxs entries =
  List.filter_map
    (fun { ir = r; _ } ->
      if r.rate <> None && r.decision = Ast.Allow then Some r.idx else None)
    entries

(* Every budget state of a cell: each subset of its rated allow rules
   marked exhausted.  Past [max_oracle_bits] rated rules in one bucket the
   powerset is truncated to the two extremes (and the report says so). *)
let assignments entries =
  let idxs = rated_idxs entries in
  if List.length idxs <= max_oracle_bits then (subsets idxs, false)
  else ([ []; idxs ], true)

(* ------------------------------------------------------------------ *)
(* Equivalence proof                                                   *)
(* ------------------------------------------------------------------ *)

type proof = {
  cells : int;
  assignments : int;
  witnesses : int;
  unreachable : int;
      (** oracle states no concrete request sequence could reproduce *)
  truncated : int;  (** cells whose oracle powerset was truncated *)
  divergences : Diagnostic.t list;  (** SP014, empty on a proved policy *)
}

let proved p = p.divergences = []

let request_of (c : cell) msg_id =
  { Ir.mode = c.mode; subject = c.subject; asset = c.asset; op = c.op; msg_id }

(* The two deciders the proof checks against the symbolic partition: the
   reference scan and the compiled engine, each with fresh budgets. *)
let engines ~strategy db =
  (Reference.create ~strategy db, Engine.create ~strategy db)

let decide_compiled engine req =
  let o = Engine.decide engine req in
  (o.Engine.decision, o.Engine.matched)

(* Drive a fresh engine pair into an oracle state: for each exhausted rule
   in folded order, fire [count] identical requests at a point only it can
   win, draining its window.  Time stays at 0.0 throughout, so windows
   never slide and earlier drains persist. *)
let prime (interp, compiled) (c : cell) skipped =
  List.iter
    (fun ((r : Ir.rule), region) ->
      match (r.rate, Region.witnesses region) with
      | Some rate, w :: _ ->
          let req = request_of c w in
          for _ = 1 to rate.Ast.count do
            ignore (Reference.decide interp req);
            ignore (Engine.decide compiled req)
          done
      | None, _ | _, [] -> assert false)
    skipped;
  (interp, compiled)

(* ------------------------------------------------------------------ *)
(* Completeness                                                        *)
(* ------------------------------------------------------------------ *)

type completeness = {
  cells : int;
  explicit_cells : int;  (** no point falls to the default *)
  partial_cells : int;  (** some message ids fall to the default *)
  silent_cells : int;  (** every point falls to the default *)
  default : Ast.decision;
  default_points : int;  (** total message points decided by the default *)
}

(* ------------------------------------------------------------------ *)
(* Mode merging (SP010)                                                *)
(* ------------------------------------------------------------------ *)

(* Only mode pairs that some rule actually tells apart are merge
   candidates: if every mode-scoped rule names both or neither, the policy
   already treats them as one class and there is nothing to merge. *)
let distinguishes (db : Ir.db) m1 m2 =
  List.exists
    (fun (r : Ir.rule) ->
      match r.modes with
      | None -> false
      | Some l -> List.mem m1 l <> List.mem m2 l)
    db.rules

let modes_equivalent ~strategy ix u m1 m2 =
  List.for_all
    (fun subject ->
      List.for_all
        (fun asset ->
          List.for_all
            (fun op ->
              let entries = bucket ix asset op in
              let r1 = select entries { mode = m1; subject; asset; op }
              and r2 = select entries { mode = m2; subject; asset; op } in
              let rated =
                List.sort_uniq Int.compare (rated_idxs r1 @ rated_idxs r2)
              in
              let sets =
                if List.length rated <= max_oracle_bits then subsets rated
                else [ []; rated ]
              in
              List.for_all
                (fun set ->
                  let map entries =
                    class_map
                      (fst
                         (scan ~strategy ~exhausted:set entries
                            ~default:ix.default))
                  in
                  class_maps_equal (map r1) (map r2))
                sets)
            [ Ir.Read; Ir.Write ])
        u.assets)
    u.subjects

let merge_classes ~strategy db ix u =
  let named = List.filter (fun m -> m <> other) u.modes in
  let place classes m =
    let rec go = function
      | [] -> [ [ m ] ]
      | (rep :: _ as cls) :: rest ->
          if distinguishes db rep m && modes_equivalent ~strategy ix u rep m
          then (cls @ [ m ]) :: rest
          else cls :: go rest
      | [] :: _ -> assert false
    in
    go classes
  in
  List.fold_left place [] named |> List.filter (fun c -> List.length c > 1)

(* ------------------------------------------------------------------ *)
(* Obligations (SP013)                                                 *)
(* ------------------------------------------------------------------ *)

type violation = {
  subject : string;
  mode : string;
  region : Region.t;  (** the message region the policy allows *)
  rated : bool;  (** every allowing segment is rate-limited *)
  rules : int list;  (** allowing rule indices; [[]] = default allow *)
}

type obligation_status = {
  obligation : Obligation.t;
  violations : violation list;
}

let discharged s = s.violations = []

let ir_op = function Threat.Read -> Ir.Read | Threat.Write -> Ir.Write

(* [partition] is one db's staged {!partition}. *)
let check_obligation partition u (o : Obligation.t) =
  let op = ir_op o.Obligation.operation in
  let modes = match o.modes with [] -> u.modes | l -> l in
  let subjects =
    List.filter (fun s -> not (List.mem s o.exempt_subjects)) u.subjects
  in
  let violations =
    List.concat_map
      (fun mode ->
        List.filter_map
          (fun subject ->
            let segments = partition { mode; subject; asset = o.asset; op } in
            let allowing =
              List.filter (fun (s : segment) -> permissive s.cls) segments
            in
            let region =
              List.fold_left
                (fun acc (s : segment) -> Region.union acc s.region)
                Region.empty allowing
            in
            if Region.is_empty region then None
            else
              Some
                {
                  subject;
                  mode;
                  region;
                  rated =
                    List.for_all
                      (fun (s : segment) ->
                        match s.cls with Rated _ -> true | Deny | Allow -> false)
                      allowing;
                  rules =
                    List.filter_map
                      (fun (s : segment) ->
                        Option.map (fun (r : Ir.rule) -> r.idx) s.rule)
                      allowing
                    |> List.sort_uniq Int.compare;
                })
          subjects)
      modes
  in
  { obligation = o; violations }

let sp013 (s : obligation_status) =
  let o = s.obligation in
  let v = List.hd s.violations in
  let op = ir_op o.Obligation.operation in
  Diagnostic.make Diagnostic.Threat_unmitigated
    (Format.asprintf
       "threat %s: %s on %s is allowed for %d non-exempt subject/mode \
        pair(s), e.g. %s in mode %s over %a%s"
       o.threat_id (Ir.op_name op) o.asset
       (List.length s.violations)
       v.subject v.mode Region.pp v.region
       (if v.rated then " (rate-limited)" else ""))
    ~asset:o.asset ~subject:v.subject ~mode:v.mode ~op
    ?msg_range:(Region.span v.region)
    ?rules:(match v.rules with [] -> None | l -> Some l)

(* ------------------------------------------------------------------ *)
(* The full analysis                                                   *)
(* ------------------------------------------------------------------ *)

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
}

let analyse ?(strategy = Engine.Deny_overrides) ?modes ?subjects ?assets
    ?(obligations = []) (db : Ir.db) =
  let u = universe ?modes ?subjects ?assets db in
  let ix = index db in
  let cs = cells u in
  let effective = Hashtbl.create 64 in
  List.iter
    (fun (r : Ir.rule) -> Hashtbl.replace effective r.idx (ref Region.empty))
    db.rules;
  let divergences = ref [] in
  let witnesses = ref 0 in
  let assignments_n = ref 0 in
  let unreachable = ref 0 in
  let truncated = ref 0 in
  let explicit_cells = ref 0 in
  let partial_cells = ref 0 in
  let silent_cells = ref 0 in
  let default_points = ref 0 in
  let shared = engines ~strategy db in
  let probe (c : cell) (seg : segment) req name decide =
    let expect_decision = decision_of_cls seg.cls in
    let expect_rule = Option.map (fun (r : Ir.rule) -> r.idx) seg.rule in
    let got_decision, got_matched = decide req in
    let got_rule = Option.map (fun (r : Ir.rule) -> r.idx) got_matched in
    let source = function
      | None -> "the default"
      | Some i -> Printf.sprintf "rule #%d" i
    in
    if got_decision <> expect_decision || got_rule <> expect_rule then
      divergences :=
        Diagnostic.make Diagnostic.Semantics_divergence
          (Format.asprintf
             "%s engine disagrees with the symbolic partition on %a: \
              expected %s by %s, got %s by %s"
             name Ir.pp_request req
             (Ast.decision_name expect_decision)
             (source expect_rule)
             (Ast.decision_name got_decision)
             (source got_rule))
          ~asset:c.asset ~subject:c.subject ~mode:c.mode ~op:c.op
          ?rules:(Option.map (fun i -> [ i ]) expect_rule)
        :: !divergences
  in
  List.iter
    (fun (c : cell) ->
      let entries = applicable ix c in
      let sets, was_truncated = assignments entries in
      if was_truncated then incr truncated;
      List.iter
        (fun set ->
          incr assignments_n;
          let segments, skipped =
            scan ~strategy ~exhausted:set entries ~default:db.default
          in
          List.iter
            (fun seg ->
              match seg.rule with
              | None -> ()
              | Some (r : Ir.rule) ->
                  let slot = Hashtbl.find effective r.idx in
                  slot := Region.union !slot seg.region)
            segments;
          if set = [] then begin
            (* steady state doubles as the completeness measurement *)
            let default_region =
              List.fold_left
                (fun acc s ->
                  if s.rule = None then Region.union acc s.region else acc)
                Region.empty segments
            in
            if Region.is_empty default_region then incr explicit_cells
            else if Region.equal default_region Region.full then
              incr silent_cells
            else incr partial_cells;
            default_points := !default_points + Region.cardinal default_region
          end;
          (* an oracle state is concretely reproducible when every
             exhausted rule has a point to drain through and a small
             enough budget to drain *)
          let reachable =
            List.length skipped = List.length set
            && List.for_all
                 (fun ((r : Ir.rule), _) ->
                   match r.rate with
                   | Some rate -> rate.Ast.count <= prime_cap
                   | None -> false)
                 skipped
          in
          if not reachable then incr unreachable
          else begin
            let pair =
              if set = [] then shared else prime (engines ~strategy db) c skipped
            in
            List.iter
              (fun (seg : segment) ->
                List.iter
                  (fun w ->
                    incr witnesses;
                    (* a witness whose winner is rate-limited consumes
                       budget, so it gets its own freshly primed pair *)
                    let interp, compiled =
                      match seg.cls with
                      | Rated _ -> prime (engines ~strategy db) c skipped
                      | Deny | Allow -> pair
                    in
                    let req = request_of c w in
                    probe c seg req "interpreted" (Reference.decide interp);
                    probe c seg req "compiled" (decide_compiled compiled))
                  (Region.witnesses seg.region))
              segments
          end)
        sets)
    cs;
  let dead_rules =
    List.filter_map
      (fun (r : Ir.rule) ->
        if Region.is_empty !(Hashtbl.find effective r.idx) then Some r.idx
        else None)
      db.rules
  in
  let sp011 =
    List.filter_map
      (fun (r : Ir.rule) ->
        if not (List.mem r.idx dead_rules) then None
        else
          Some
            (Diagnostic.make Diagnostic.Region_empty
               (Printf.sprintf
                  "rule #%d (%s %s on %s) has an empty effective region: \
                   under %s every request it could match is captured by \
                   other rules, or it can never match the declared universe"
                  r.idx
                  (Ast.decision_name r.decision)
                  (String.concat "+" (List.map Ir.op_name r.ops))
                  r.asset (strategy_name strategy))
               ~rules:[ r.idx ] ~asset:r.asset))
      db.rules
  in
  let mergeable = merge_classes ~strategy db ix u in
  let sp010 =
    List.map
      (fun cls ->
        Diagnostic.make Diagnostic.Mode_mergeable
          (Printf.sprintf
             "modes %s are semantically equivalent: distinct mode-scoped \
              rules produce identical decision functions on every cell, so \
              their scopes can be merged"
             (String.concat ", " cls))
          ~mode:(List.hd cls))
      mergeable
  in
  let obligations =
    List.map (check_obligation (partition_in ~strategy ix) u) obligations
  in
  let sp013s =
    List.filter_map
      (fun s -> if discharged s then None else Some (sp013 s))
      obligations
  in
  {
    db;
    strategy;
    universe = u;
    completeness =
      {
        cells = List.length cs;
        explicit_cells = !explicit_cells;
        partial_cells = !partial_cells;
        silent_cells = !silent_cells;
        default = db.default;
        default_points = !default_points;
      };
    proof =
      {
        cells = List.length cs;
        assignments = !assignments_n;
        witnesses = !witnesses;
        unreachable = !unreachable;
        truncated = !truncated;
        divergences = List.sort_uniq Diagnostic.compare !divergences;
      };
    mergeable;
    dead_rules;
    obligations;
    diagnostics =
      List.sort_uniq Diagnostic.compare
        (sp010 @ sp011 @ sp013s @ !divergences);
  }

(* ------------------------------------------------------------------ *)
(* Differential update analysis                                        *)
(* ------------------------------------------------------------------ *)

type direction = Widened | Tightened | Changed

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
  universe : universe;
  deltas : delta list;
  diagnostics : Diagnostic.t list;  (** SP012, one per widened delta *)
}

let direction ~before ~after =
  match (before, after) with
  | Deny, (Allow | Rated _) | Rated _, Allow -> Widened
  | (Allow | Rated _), Deny | Allow, Rated _ -> Tightened
  (* two different rates are incomparable in general: a higher count can
     come with a shorter window *)
  | Rated _, Rated _ | Deny, Deny | Allow, Allow -> Changed

let diff ?(strategy = Engine.Deny_overrides) ?modes ?subjects ?assets
    (old_db : Ir.db) (new_db : Ir.db) =
  let both f = List.sort_uniq String.compare (f old_db @ f new_db) in
  let u =
    {
      modes =
        with_other
          (match modes with
          | Some (_ :: _ as l) -> l
          | Some [] | None -> both named_modes);
      subjects =
        with_other
          (match subjects with
          | Some (_ :: _ as l) -> l
          | Some [] | None -> both Ir.subjects);
      assets =
        with_other
          (match assets with
          | Some (_ :: _ as l) -> l
          | Some [] | None -> both Ir.assets);
    }
  in
  let ix_old = index old_db and ix_new = index new_db in
  let same_default = old_db.default = new_db.default in
  let class_map_of entries default =
    class_map (fst (scan ~strategy ~exhausted:[] entries ~default))
  in
  let cell_deltas c r_old r_new =
    let m_old = class_map_of r_old old_db.default in
    let m_new = class_map_of r_new new_db.default in
    List.concat_map
      (fun (before, r_old) ->
        List.filter_map
          (fun (after, r_new) ->
            if before = after then None
            else
              let region = Region.inter r_old r_new in
              if Region.is_empty region then None
              else
                Some
                  {
                    cell = c;
                    before;
                    after;
                    region;
                    direction = direction ~before ~after;
                  })
          m_new)
      m_old
  in
  (* Only cells that can differ are partitioned (see [same_effect]): a
     whole (asset, op) bucket is skipped when both versions hold it rule
     for rule, and a cell of a differing bucket when both select equal
     rule lists for it.  A default change leaves nothing to skip. *)
  let buckets =
    List.concat_map
      (fun asset ->
        List.map
          (fun op ->
            let b_old = bucket ix_old asset op in
            let b_new = bucket ix_new asset op in
            let skip = same_default && List.equal same_scope b_old b_new in
            (asset, op, b_old, b_new, skip))
          [ Ir.Read; Ir.Write ])
      u.assets
  in
  let deltas =
    (* the loops run in [cells u] order, so the deltas do too *)
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun subject ->
            List.concat_map
              (fun (asset, op, b_old, b_new, skip) ->
                if skip then []
                else
                  let c = { mode; subject; asset; op } in
                  let r_old = select b_old c and r_new = select b_new c in
                  if same_default && List.equal same_effect r_old r_new then []
                  else cell_deltas c r_old r_new)
              buckets)
          u.subjects)
      u.modes
  in
  let diagnostics =
    List.filter_map
      (fun d ->
        if d.direction <> Widened then None
        else
          Some
            (Diagnostic.make Diagnostic.Allow_widened
               (Format.asprintf
                  "update widens access: %s may now %s %s in mode %s over \
                   %a (%s -> %s)"
                  d.cell.subject (Ir.op_name d.cell.op) d.cell.asset
                  d.cell.mode Region.pp d.region (cls_name d.before)
                  (cls_name d.after))
               ~asset:d.cell.asset ~subject:d.cell.subject ~mode:d.cell.mode
               ~op:d.cell.op
               ?msg_range:(Region.span d.region)))
      deltas
    |> List.sort_uniq Diagnostic.compare
  in
  { old_db; new_db; strategy; universe = u; deltas; diagnostics }

let count_direction dir r =
  List.length (List.filter (fun d -> d.direction = dir) r.deltas)

(* ------------------------------------------------------------------ *)
(* Update gate                                                         *)
(* ------------------------------------------------------------------ *)

type gate = {
  widened : int;
  tightened : int;
  changed : int;
  violations_before : int;
  violations_after : int;
  passed : bool;
  refusal : string option;
}

(* Both versions are counted over the diff's one universe.  Counted over
   its own names, each version would skip cells the other counts: a
   subject only the new version names is still decided by the old one,
   through its wildcard rules or its default. *)
let gate ?(obligations = []) (d : diff_report) =
  let ix_old = index d.old_db and ix_new = index d.new_db in
  let count ix o =
    List.length
      (check_obligation (partition_in ~strategy:d.strategy ix) d.universe o)
        .violations
  in
  (* An obligation reads only its own (asset, op) bucket.  Held rule for
     rule by both versions under one default, that bucket decides every
     cell alike on both sides (see [same_effect]), so its violations are
     counted once for both. *)
  let violations_before, violations_after =
    List.fold_left
      (fun (before, after) (o : Obligation.t) ->
        let op = ir_op o.operation in
        let n_old = count ix_old o in
        let n_new =
          if
            d.old_db.default = d.new_db.default
            && List.equal same_scope (bucket ix_old o.asset op)
                 (bucket ix_new o.asset op)
          then n_old
          else count ix_new o
        in
        (before + n_old, after + n_new))
      (0, 0) obligations
  in
  let widened = count_direction Widened d in
  let passed = widened = 0 && violations_after <= violations_before in
  {
    widened;
    tightened = count_direction Tightened d;
    changed = count_direction Changed d;
    violations_before;
    violations_after;
    passed;
    refusal =
      (if passed then None
       else
         match d.diagnostics with
         | first :: _ -> Some first.Diagnostic.message
         | [] ->
             Some
               (Printf.sprintf
                  "update adds threat-obligation violations: %d -> %d"
                  violations_before violations_after));
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let direction_name = function
  | Widened -> "widened"
  | Tightened -> "tightened"
  | Changed -> "changed"

let pp_cell ppf (c : cell) =
  Format.fprintf ppf "%s %s %s in %s" c.subject (Ir.op_name c.op) c.asset
    c.mode

let pp_segment ppf s =
  Format.fprintf ppf "%s%s on %a" (cls_name s.cls)
    (match s.rule with
    | None -> " (default)"
    | Some (r : Ir.rule) -> Printf.sprintf " by rule #%d" r.idx)
    Region.pp s.region

let pp_delta ppf d =
  Format.fprintf ppf "%s: %a: %s -> %s on %a"
    (direction_name d.direction)
    pp_cell d.cell (cls_name d.before) (cls_name d.after) Region.pp d.region

let pp_report ppf r =
  let c = r.completeness in
  Format.fprintf ppf
    "verify %s v%d (%s): %d cells over %d modes x %d subjects x %d assets@."
    r.db.Ir.name r.db.Ir.version (strategy_name r.strategy) c.cells
    (List.length r.universe.modes)
    (List.length r.universe.subjects)
    (List.length r.universe.assets);
  Format.fprintf ppf
    "completeness: %d explicit, %d partial, %d silent cell(s); default %s \
     decides %d message point(s)@."
    c.explicit_cells c.partial_cells c.silent_cells
    (Ast.decision_name c.default)
    c.default_points;
  Format.fprintf ppf "proof: %d witness(es) over %d oracle assignment(s): %s@."
    r.proof.witnesses r.proof.assignments
    (if proved r.proof then "interpreted = compiled = symbolic (proved)"
     else
       Printf.sprintf "%d divergence(s) - toolchain bug"
         (List.length r.proof.divergences));
  (match r.obligations with
  | [] -> ()
  | l ->
      Format.fprintf ppf "obligations: %d/%d discharged@."
        (List.length (List.filter discharged l))
        (List.length l);
      List.iter
        (fun s ->
          Format.fprintf ppf "  %s %a@."
            (if discharged s then "[ok]" else "[VIOLATED]")
            Obligation.pp s.obligation)
        l);
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) r.diagnostics

let pp_diff_report ppf r =
  Format.fprintf ppf
    "semantic diff %s v%d -> v%d (%s): %d delta(s): %d widened, %d \
     tightened, %d changed@."
    r.new_db.Ir.name r.old_db.Ir.version r.new_db.Ir.version
    (strategy_name r.strategy)
    (List.length r.deltas)
    (count_direction Widened r)
    (count_direction Tightened r)
    (count_direction Changed r);
  List.iter (fun d -> Format.fprintf ppf "  %a@." pp_delta d) r.deltas

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let cls_to_json = function
  | Deny -> Json.Obj [ ("class", Json.String "deny") ]
  | Allow -> Json.Obj [ ("class", Json.String "allow") ]
  | Rated r ->
      Json.Obj
        [
          ("class", Json.String "allow-rated");
          ("count", Json.Int r.Ast.count);
          ("window_ms", Json.Int r.Ast.window_ms);
        ]

let status_to_json (s : obligation_status) =
  let o = s.obligation in
  Json.Obj
    [
      ("threat", Json.String o.Obligation.threat_id);
      ("asset", Json.String o.asset);
      ("operation", Json.String (Threat.operation_name o.operation));
      ("modes", Json.List (List.map (fun m -> Json.String m) o.modes));
      ( "exempt_subjects",
        Json.List (List.map (fun s -> Json.String s) o.exempt_subjects) );
      ("residual", Json.Bool o.residual);
      ("discharged", Json.Bool (discharged s));
      ( "violations",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("subject", Json.String v.subject);
                   ("mode", Json.String v.mode);
                   ("rated", Json.Bool v.rated);
                   ("rules", Json.List (List.map (fun i -> Json.Int i) v.rules));
                   ("region", Region.to_json v.region);
                 ])
             s.violations) );
    ]

let report_to_json r =
  let c = r.completeness in
  let p = r.proof in
  Json.Obj
    [
      ("policy", Json.String r.db.Ir.name);
      ("version", Json.Int r.db.Ir.version);
      ("strategy", Json.String (strategy_name r.strategy));
      ( "universe",
        Json.Obj
          [
            ("modes", Json.Int (List.length r.universe.modes));
            ("subjects", Json.Int (List.length r.universe.subjects));
            ("assets", Json.Int (List.length r.universe.assets));
          ] );
      ( "completeness",
        Json.Obj
          [
            ("cells", Json.Int c.cells);
            ("explicit", Json.Int c.explicit_cells);
            ("partial", Json.Int c.partial_cells);
            ("silent", Json.Int c.silent_cells);
            ("default", Json.String (Ast.decision_name c.default));
            ("default_points", Json.Int c.default_points);
          ] );
      ( "proof",
        Json.Obj
          [
            ("proved", Json.Bool (proved p));
            ("witnesses", Json.Int p.witnesses);
            ("assignments", Json.Int p.assignments);
            ("unreachable", Json.Int p.unreachable);
            ("truncated_cells", Json.Int p.truncated);
            ("divergences", Json.Int (List.length p.divergences));
          ] );
      ( "mergeable_modes",
        Json.List
          (List.map
             (fun cls -> Json.List (List.map (fun m -> Json.String m) cls))
             r.mergeable) );
      ("dead_rules", Json.List (List.map (fun i -> Json.Int i) r.dead_rules));
      ("obligations", Json.List (List.map status_to_json r.obligations));
      ( "diagnostics",
        Json.List (List.map Diagnostic.to_json r.diagnostics) );
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Int (Diagnostic.count Diagnostic.Error r.diagnostics));
            ( "warnings",
              Json.Int (Diagnostic.count Diagnostic.Warning r.diagnostics) );
            ("infos", Json.Int (Diagnostic.count Diagnostic.Info r.diagnostics));
          ] );
    ]

let delta_to_json d =
  Json.Obj
    [
      ("mode", Json.String d.cell.mode);
      ("subject", Json.String d.cell.subject);
      ("asset", Json.String d.cell.asset);
      ("op", Json.String (Ir.op_name d.cell.op));
      ("before", cls_to_json d.before);
      ("after", cls_to_json d.after);
      ("direction", Json.String (direction_name d.direction));
      ("region", Region.to_json d.region);
    ]

let diff_to_json r =
  Json.Obj
    [
      ("policy", Json.String r.new_db.Ir.name);
      ("old_version", Json.Int r.old_db.Ir.version);
      ("new_version", Json.Int r.new_db.Ir.version);
      ("strategy", Json.String (strategy_name r.strategy));
      ("deltas", Json.List (List.map delta_to_json r.deltas));
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length r.deltas));
            ("widened", Json.Int (count_direction Widened r));
            ("tightened", Json.Int (count_direction Tightened r));
            ("changed", Json.Int (count_direction Changed r));
          ] );
      ("diagnostics", Json.List (List.map Diagnostic.to_json r.diagnostics));
    ]
