module Obs = Secpol_obs

type strategy = Table.strategy =
  | Deny_overrides
  | Allow_overrides
  | First_match

type mode = [ `Interpreted | `Compiled ]

type outcome = {
  decision : Ast.decision;
  matched : Ir.rule option;
  from_cache : bool;
}

type stats = {
  decisions : int;
  allows : int;
  denies : int;
  cache_hits : int;
  cache_misses : int;
  cache_flushes : int;
}

module Cache = Hashtbl.Make (Ir.Request)

exception Unavailable

type t = {
  mutable db : Ir.db;
  mutable stalled : bool;
  strategy : strategy;
  mode : mode;
  mutable by_asset : (string, Ir.rule list) Hashtbl.t;
      (* interpreted path; kept in both modes for introspection *)
  mutable table : Table.t option;  (* compiled path *)
  cache : (Ast.decision * Ir.rule option) Cache.t option;
  cache_capacity : int;
  (* sliding-window grant budgets per (rate-limited rule, subject) *)
  buckets : (int * string, Rate_window.t) Hashtbl.t;
  (* the batch path's rate callbacks, closed over [buckets] once at
     construction so decide_batch passes pre-existing closures instead of
     allocating fresh ones per call; each reads its row's subject and
     timestamp itself *)
  rate_avail_cb : Ir.rule -> Batch.t -> int -> bool;
  rate_cons_cb : Ir.rule -> Batch.t -> int -> unit;
  mutable rated_assets : string list;
  (* one consistent registry instead of ad-hoc mutable stat fields; the
     counters exist (and cost one word each) even without a registry, so
     the hot path never branches on whether telemetry is attached *)
  c_decisions : Obs.Counter.t;
  c_allows : Obs.Counter.t;
  c_denies : Obs.Counter.t;
  c_cache_hits : Obs.Counter.t;
  c_cache_misses : Obs.Counter.t;
  c_cache_flushes : Obs.Counter.t;
  latency : Obs.Histogram.t option; (* per-decision, ns; None when no obs *)
  batch_latency : Obs.Histogram.t option; (* per-batch, ns; None when no obs *)
  clock : unit -> float;
  events : Obs.Ring.t option;
}

let index_by_asset (db : Ir.db) =
  let tbl = Hashtbl.create 32 in
  (* keep source order within each asset bucket: cons (O(1)) while
     scanning, then reverse each bucket once — appending with [@] here is
     quadratic in rules per asset *)
  List.iter
    (fun (r : Ir.rule) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt tbl r.asset) in
      Hashtbl.replace tbl r.asset (r :: existing))
    db.rules;
  Hashtbl.filter_map_inplace (fun _ rules -> Some (List.rev rules)) tbl;
  tbl

let rated_assets_of (db : Ir.db) =
  db.rules
  |> List.filter_map (fun (r : Ir.rule) ->
         if r.rate <> None then Some r.asset else None)
  |> List.sort_uniq String.compare

let default_cache_capacity = 8192

(* Behavioural budgets, shared by the scalar and batched paths: a
   rate-limited allow rule is *available* while its sliding window has
   room, and its budget is consumed only when the rule actually produces
   the Allow decision.  Keyed by (rule index, subject) over the engine's
   bucket table — free functions so the batch callbacks can close over
   the table before the engine record exists. *)
let bucket_of buckets (r : Ir.rule) rate subject =
  let key = (r.Ir.idx, subject) in
  match Hashtbl.find_opt buckets key with
  | Some w -> w
  | None ->
      let w = Rate_window.of_rate rate in
      Hashtbl.replace buckets key w;
      w

let rate_available_in buckets ~now (r : Ir.rule) subject =
  match r.rate with
  | None -> true
  | Some rate -> Rate_window.available (bucket_of buckets r rate subject) ~now

let rate_consume_in buckets ~now (r : Ir.rule) subject =
  match r.rate with
  | None -> ()
  | Some rate -> Rate_window.consume (bucket_of buckets r rate subject) ~now

let make ~strategy ~cache ~cache_capacity ~mode ~obs ~table db =
  if cache_capacity <= 0 then
    invalid_arg "Engine.create: cache_capacity must be positive";
  let counter name =
    let c = Obs.Counter.create () in
    Option.iter
      (fun reg -> Obs.Registry.register_counter reg ("policy.engine." ^ name) c)
      obs;
    c
  in
  let buckets = Hashtbl.create 32 in
  {
    db;
    stalled = false;
    strategy;
    mode;
    by_asset = index_by_asset db;
    table;
    cache = (if cache then Some (Cache.create 256) else None);
    cache_capacity;
    buckets;
    rate_avail_cb =
      (fun r b i ->
        rate_available_in buckets ~now:b.Batch.nows.(i) r b.Batch.subjects.(i));
    rate_cons_cb =
      (fun r b i ->
        rate_consume_in buckets ~now:b.Batch.nows.(i) r b.Batch.subjects.(i));
    rated_assets = rated_assets_of db;
    c_decisions = counter "decisions";
    c_allows = counter "allows";
    c_denies = counter "denies";
    c_cache_hits = counter "cache.hits";
    c_cache_misses = counter "cache.misses";
    c_cache_flushes = counter "cache.flushes";
    latency =
      Option.map
        (fun reg ->
          Obs.Registry.histogram ~lo:50.0 ~ratio:2.0 ~buckets:32 reg
            "policy.engine.decide_ns")
        obs;
    batch_latency =
      Option.map
        (fun reg ->
          Obs.Registry.histogram ~lo:1000.0 ~ratio:2.0 ~buckets:32 reg
            "policy.engine.decide_batch_ns")
        obs;
    clock =
      (match obs with Some reg -> Obs.Registry.clock reg | None -> Sys.time);
    events = Option.map Obs.Registry.trace obs;
  }

let create ?(strategy = Deny_overrides) ?(cache = true)
    ?(cache_capacity = default_cache_capacity) ?(mode = `Compiled) ?obs db =
  let table =
    match mode with
    | `Compiled -> Some (Table.compile ~strategy db)
    | `Interpreted -> None
  in
  make ~strategy ~cache ~cache_capacity ~mode ~obs ~table db

let of_table ?(cache = true) ?(cache_capacity = default_cache_capacity) ?obs
    table db =
  make ~strategy:(Table.strategy table) ~cache ~cache_capacity ~mode:`Compiled
    ~obs ~table:(Some table) db

let strategy t = t.strategy

let mode t = t.mode

let db t = t.db

let table t = t.table

let table_stats t = Option.map Table.stats t.table

(* Matching alongside a winning deny costs nothing; deny rules never carry
   rates (the compiler refuses them).  Window semantics live in
   {!Rate_window}, shared with the HPE's hardware shaper. *)
let rate_available t ~now (r : Ir.rule) subject =
  rate_available_in t.buckets ~now r subject

let rate_consume t ~now (r : Ir.rule) subject =
  rate_consume_in t.buckets ~now r subject

let matching_rules t (req : Ir.request) =
  let candidates =
    Option.value ~default:[] (Hashtbl.find_opt t.by_asset req.Ir.asset)
  in
  List.filter (fun r -> Ir.rule_matches r req) candidates

let resolve_interpreted t ~now (req : Ir.request) =
  let matching = matching_rules t req in
  let subject = req.Ir.subject in
  (* the first allow rule whose budget (if any) has room; consuming it *)
  let take_allow rules =
    match
      List.find_opt
        (fun (r : Ir.rule) ->
          r.decision = Ast.Allow && rate_available t ~now r subject)
        rules
    with
    | Some r ->
        rate_consume t ~now r subject;
        Some r
    | None -> None
  in
  match t.strategy with
  | First_match ->
      (* scan in source order; an exhausted allow rule is skipped *)
      let rec scan = function
        | [] -> (t.db.default, None)
        | (r : Ir.rule) :: rest -> (
            match r.decision with
            | Ast.Deny -> (Ast.Deny, Some r)
            | Ast.Allow ->
                if rate_available t ~now r subject then begin
                  rate_consume t ~now r subject;
                  (Ast.Allow, Some r)
                end
                else scan rest)
      in
      scan matching
  | Deny_overrides -> (
      match List.find_opt (fun (r : Ir.rule) -> r.decision = Ast.Deny) matching with
      | Some r -> (Ast.Deny, Some r)
      | None -> (
          match take_allow matching with
          | Some r -> (Ast.Allow, Some r)
          | None -> (t.db.default, None)))
  | Allow_overrides -> (
      match take_allow matching with
      | Some r -> (Ast.Allow, Some r)
      | None -> (
          match
            List.find_opt (fun (r : Ir.rule) -> r.decision = Ast.Deny) matching
          with
          | Some r -> (Ast.Deny, Some r)
          | None -> (t.db.default, None)))

let resolve t ~now (req : Ir.request) =
  match t.table with
  | Some table ->
      Table.decide table
        ~rate_available:(fun r -> rate_available t ~now r req.Ir.subject)
        ~rate_consume:(fun r -> rate_consume t ~now r req.Ir.subject)
        req
  | None -> resolve_interpreted t ~now req

let record t decision =
  Obs.Counter.incr t.c_decisions;
  match decision with
  | Ast.Allow -> Obs.Counter.incr t.c_allows
  | Ast.Deny -> Obs.Counter.incr t.c_denies

let cache_insert t cache req entry =
  (* bounded: a full flush beats per-entry eviction bookkeeping on the hot
     path, and the compiled table repopulates a flushed cache in one pass
     over the working set *)
  if Cache.length cache >= t.cache_capacity then begin
    (match t.events with
    | None -> ()
    | Some ring ->
        Obs.Ring.record ring ~time:(t.clock ())
          ~attrs:[ ("entries", string_of_int (Cache.length cache)) ]
          "policy.cache.flush");
    Cache.reset cache;
    Obs.Counter.incr t.c_cache_flushes
  end;
  Cache.replace cache req entry

let decide_untimed t ~now (req : Ir.request) =
  let cacheable = not (List.mem req.Ir.asset t.rated_assets) in
  match t.cache with
  | Some cache when cacheable -> (
      match Cache.find_opt cache req with
      | Some (decision, matched) ->
          Obs.Counter.incr t.c_cache_hits;
          record t decision;
          { decision; matched; from_cache = true }
      | None ->
          Obs.Counter.incr t.c_cache_misses;
          let decision, matched = resolve t ~now req in
          cache_insert t cache req (decision, matched);
          record t decision;
          { decision; matched; from_cache = false })
  | Some _ | None ->
      let decision, matched = resolve t ~now req in
      record t decision;
      { decision; matched; from_cache = false }

let set_stalled t stalled = t.stalled <- stalled

let stalled t = t.stalled

let decide ?(now = 0.0) t (req : Ir.request) =
  if t.stalled then raise Unavailable;
  match t.latency with
  | None -> decide_untimed t ~now req
  | Some h ->
      let t0 = t.clock () in
      let outcome = decide_untimed t ~now req in
      Obs.Histogram.observe h ((t.clock () -. t0) *. 1e9);
      outcome

let permitted ?now t req = (decide ?now t req).decision = Ast.Allow

(* The batched fast path.  Per-request work against a compiled table is
   free of minor-heap allocation: the batch's columns are flat arrays,
   dispatch lookups probe open-addressed arrays, the rate callbacks are
   the closures stored at construction, and the decision counters are
   one-word cells.  Per-*batch* costs (the latency observation, interning
   a mode the memo has not seen) stay O(1) regardless of batch size. *)
let decide_batch_untimed t (b : Batch.t) ~out =
  let allows =
    match t.table with
    | Some table ->
        Table.decide_batch table ~rate_available:t.rate_avail_cb
          ~rate_consume:t.rate_cons_cb b ~out
    | None ->
        (* interpreted parity path: reconstructs each request (allocating);
           exists so batch ≡ scalar holds in both engine modes, not for
           speed.  Bypasses the cache like the compiled batch path. *)
        let allows = ref 0 in
        for i = 0 to b.Batch.len - 1 do
          let decision, _ =
            resolve_interpreted t ~now:b.Batch.nows.(i) (Batch.request b i)
          in
          if decision = Ast.Allow then incr allows;
          out.(i) <- decision
        done;
        !allows
  in
  (* bulk stats: three counter adds per batch, not two bumps per request *)
  Obs.Counter.add t.c_decisions b.Batch.len;
  Obs.Counter.add t.c_allows allows;
  Obs.Counter.add t.c_denies (b.Batch.len - allows)

let decide_batch t (b : Batch.t) ~out =
  if t.stalled then raise Unavailable;
  if Array.length out < b.Batch.len then
    invalid_arg "Engine.decide_batch: out array shorter than the batch";
  match t.batch_latency with
  | None -> decide_batch_untimed t b ~out
  | Some h ->
      let t0 = t.clock () in
      decide_batch_untimed t b ~out;
      Obs.Histogram.observe h ((t.clock () -. t0) *. 1e9)

let flush_cache t = Option.iter Cache.reset t.cache

let swap_db t db =
  t.db <- db;
  t.by_asset <- index_by_asset db;
  (match t.mode with
  | `Compiled -> t.table <- Some (Table.compile ~strategy:t.strategy db)
  | `Interpreted -> ());
  t.rated_assets <- rated_assets_of db;
  Hashtbl.reset t.buckets;
  (match t.events with
  | None -> ()
  | Some ring ->
      Obs.Ring.record ring ~time:(t.clock ())
        ~attrs:
          [
            ("policy", db.Ir.name); ("version", string_of_int db.Ir.version);
          ]
        "policy.engine.swap_db");
  flush_cache t

let stats t =
  {
    decisions = Obs.Counter.value t.c_decisions;
    allows = Obs.Counter.value t.c_allows;
    denies = Obs.Counter.value t.c_denies;
    cache_hits = Obs.Counter.value t.c_cache_hits;
    cache_misses = Obs.Counter.value t.c_cache_misses;
    cache_flushes = Obs.Counter.value t.c_cache_flushes;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%s%s"
    (Ast.decision_name o.decision)
    (match o.matched with
    | None -> " (default)"
    | Some r -> Printf.sprintf " (rule #%d of %s)" r.idx r.origin)
