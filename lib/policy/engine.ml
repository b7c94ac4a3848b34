module Obs = Secpol_obs

type strategy = Table.strategy =
  | Deny_overrides
  | Allow_overrides
  | First_match

type outcome = {
  decision : Ast.decision;
  matched : Ir.rule option;
}

type stats = {
  decisions : int;
  allows : int;
  denies : int;
}

let zero_stats = { decisions = 0; allows = 0; denies = 0 }

let add_stats a b =
  {
    decisions = a.decisions + b.decisions;
    allows = a.allows + b.allows;
    denies = a.denies + b.denies;
  }

exception Unavailable

type t = {
  mutable db : Ir.db;
  mutable stalled : bool;
  mutable table : Table.t;
  (* sliding-window grant budgets per (rate-limited rule, subject) *)
  buckets : (int * string, Rate_window.t) Hashtbl.t;
  (* the batch path's rate callbacks, closed over [buckets] once at
     construction so decide_batch passes pre-existing closures instead of
     allocating fresh ones per call; each reads its row's subject and
     timestamp itself *)
  rate_avail_cb : Ir.rule -> Batch.t -> int -> bool;
  rate_cons_cb : Ir.rule -> Batch.t -> int -> unit;
  (* one consistent registry instead of ad-hoc mutable stat fields; the
     counters exist (and cost one word each) even without a registry, so
     the hot path never branches on whether telemetry is attached *)
  c_decisions : Obs.Counter.t;
  c_allows : Obs.Counter.t;
  c_denies : Obs.Counter.t;
  latency : Obs.Histogram.t option; (* per-decision, ns; None when no obs *)
  batch_latency : Obs.Histogram.t option; (* per-batch, ns; None when no obs *)
  clock : unit -> float;
  events : Obs.Ring.t option;
}

(* Behavioural budgets, shared by the scalar and batched paths: a
   rate-limited allow rule is *available* while its sliding window has
   room, and its budget is consumed only when the rule actually produces
   the Allow decision.  Keyed by (rule index, subject) over the engine's
   bucket table — free functions so the batch callbacks can close over
   the table before the engine record exists.  Matching alongside a
   winning deny costs nothing; deny rules never carry rates (the compiler
   refuses them).  Window semantics live in {!Rate_window}, shared with
   the HPE's hardware shaper. *)
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

let of_table ?obs table db =
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
    table;
    buckets;
    rate_avail_cb =
      (fun r b i ->
        rate_available_in buckets ~now:b.Batch.nows.(i) r b.Batch.subjects.(i));
    rate_cons_cb =
      (fun r b i ->
        rate_consume_in buckets ~now:b.Batch.nows.(i) r b.Batch.subjects.(i));
    c_decisions = counter "decisions";
    c_allows = counter "allows";
    c_denies = counter "denies";
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

let create ?(strategy = Deny_overrides) ?cache:_ ?obs db =
  of_table ?obs (Table.compile ~strategy db) db

let strategy t = Table.strategy t.table

let db t = t.db

let table t = t.table

let table_stats t = Table.stats t.table

let record t decision =
  Obs.Counter.incr t.c_decisions;
  match decision with
  | Ast.Allow -> Obs.Counter.incr t.c_allows
  | Ast.Deny -> Obs.Counter.incr t.c_denies

let decide_untimed t ~now (req : Ir.request) =
  let decision, matched =
    Table.decide t.table
      ~rate_available:(fun r ->
        rate_available_in t.buckets ~now r req.Ir.subject)
      ~rate_consume:(fun r -> rate_consume_in t.buckets ~now r req.Ir.subject)
      req
  in
  record t decision;
  { decision; matched }

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

(* The batched fast path.  Per-request work is free of minor-heap
   allocation: the batch's columns are flat arrays, dispatch lookups
   probe open-addressed arrays, the rate callbacks are the closures
   stored at construction, and the decision counters are one-word cells.
   Per-*batch* costs (the latency observation, interning a mode the memo
   has not seen) stay O(1) regardless of batch size. *)
let decide_batch_untimed t (b : Batch.t) ~out =
  let allows =
    Table.decide_batch t.table ~rate_available:t.rate_avail_cb
      ~rate_consume:t.rate_cons_cb b ~out
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

let swap_db t db =
  t.db <- db;
  t.table <- Table.compile ~strategy:(strategy t) db;
  Hashtbl.reset t.buckets;
  match t.events with
  | None -> ()
  | Some ring ->
      Obs.Ring.record ring ~time:(t.clock ())
        ~attrs:
          [
            ("policy", db.Ir.name); ("version", string_of_int db.Ir.version);
          ]
        "policy.engine.swap_db"

let stats t =
  {
    decisions = Obs.Counter.value t.c_decisions;
    allows = Obs.Counter.value t.c_allows;
    denies = Obs.Counter.value t.c_denies;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%s%s"
    (Ast.decision_name o.decision)
    (match o.matched with
    | None -> " (default)"
    | Some r -> Printf.sprintf " (rule #%d of %s)" r.idx r.origin)
