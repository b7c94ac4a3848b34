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
  (* sliding-window grant budgets per (rate-limited rule, subject); a
     winning deny spends none *)
  buckets : (int * string, Rate_window.t) Hashtbl.t;
  (* the batch path's rate callback, closed over [buckets] once so
     decide_batch allocates none; it reads its row's subject and time *)
  rate_admit_cb : Ir.rule -> Batch.t -> int -> bool;
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
    rate_admit_cb =
      (fun r b i ->
        Rate_window.admit_rule buckets r b.Batch.subjects.(i)
          ~now:b.Batch.nows.(i));
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
      ~rate_admit:(fun r -> Rate_window.admit_rule t.buckets r req.subject ~now)
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
   probe open-addressed arrays, the rate callback is the closure
   stored at construction, and the decision counters are one-word cells.
   Per-*batch* costs (the latency observation, interning a mode the memo
   has not seen) stay O(1) regardless of batch size. *)
let decide_batch_untimed t (b : Batch.t) ~out =
  let allows =
    Table.decide_batch t.table ~rate_admit:t.rate_admit_cb b ~out
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
