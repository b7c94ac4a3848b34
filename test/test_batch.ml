(* Tests for the batched decision path: {!Engine.decide_batch} must agree
   decision-for-decision with per-request {!Engine.decide} and with the
   {!Reference} scan — across all three strategies, random rate-limiter
   states and batch sizes 0/1/odd/huge — an arena filled from a decoded
   wire decide must equal one filled by {!Batch.push}, a batch must decide
   as its rows do one at a time and against two tables in turn, and the
   compiled path must not allocate per request. *)

module Ast = Secpol_policy.Ast
module Parser = Secpol_policy.Parser
module Compile = Secpol_policy.Compile
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Reference = Secpol_policy.Reference
module Batch = Secpol_policy.Batch
module Table = Secpol_policy.Table
module Rate_window = Secpol_policy.Rate_window
module Wire = Secpol_serve.Wire

let quick name f = Alcotest.test_case name `Quick f

let compile_ok src =
  match Compile.compile (Result.get_ok (Parser.parse src)) with
  | Ok (db, _) -> db
  | Error issues ->
      Alcotest.fail
        ("compile failed: "
        ^ String.concat "; "
            (List.map (fun (i : Compile.issue) -> i.message) issues))

(* A policy exercising every verdict shape the compiler produces:
   unconditional buckets (Const), mode-only buckets (By_mode), message
   ranges (Range1 and multi-interval Ranges) and a rate-limited allow
   whose outcome depends on consumption order. *)
let mixed_source =
  {|
policy "batch_mix" version 1 {
  default deny;
  asset engine {
    allow read from any;
    deny  write from infotainment;
  }
  mode normal, fail_safe {
    asset brakes {
      allow write from safety messages 0x100..0x10f;
      allow read from dashboard;
    }
  }
  mode normal {
    asset telemetry {
      allow write from sensors messages 0x200..0x20f, 0x300..0x30f;
      allow read from cloud rate 3 per 1000;
    }
  }
}
|}

let subjects =
  [| "sensors"; "safety"; "dashboard"; "infotainment"; "cloud"; "stranger" |]

let assets = [| "engine"; "brakes"; "telemetry"; "unknown_asset" |]

let modes = [| "normal"; "fail_safe"; "workshop" |]

let strategies =
  [ Engine.Deny_overrides; Engine.Allow_overrides; Engine.First_match ]

(* Requests as (request, now) pairs with non-decreasing timestamps, so the
   sliding-window rate limiter sees a realistic clock. *)
let request_gen =
  QCheck.Gen.(
    let* subject = oneofa subjects in
    let* asset = oneofa assets in
    let* mode = oneofa modes in
    let* op = oneofl [ Ir.Read; Ir.Write ] in
    let* msg_id =
      oneof [ return None; map (fun id -> Some id) (0x0f0 -- 0x320) ]
    in
    let* dt = 0 -- 300 in
    return ({ Ir.mode; subject; asset; op; msg_id }, float_of_int dt /. 1000.))

let sequence reqs =
  let t = ref 0.0 in
  List.map
    (fun (req, dt) ->
      t := !t +. dt;
      (req, !t))
    reqs

(* Sizes from the issue list: empty, singleton, odd, and one big enough to
   force arena growth and cross cache lines. *)
let size_gen = QCheck.Gen.oneofl [ 0; 1; 3; 7; 33; 257 ]

let scalar_decisions engine reqs =
  List.map (fun (req, now) -> (Engine.decide ~now engine req).Engine.decision) reqs

let batch_decisions engine reqs =
  let n = List.length reqs in
  let b = Batch.create ~capacity:(max 1 n) () in
  List.iter (fun (req, now) -> Batch.push ~now b req) reqs;
  let out = Array.make (max 1 n) Ast.Deny in
  Engine.decide_batch engine b ~out;
  Array.to_list (Array.sub out 0 n)

(* The property: two engines and a reference over the same db, primed with
   the same scalar prefix (so their rate-limiter budgets are in the same —
   random — state), must produce identical decisions whether the tail is
   served one request at a time, as one batch, or by the reference scan. *)
let prop_batch_equals_scalar =
  let gen =
    QCheck.Gen.(
      let* prefix = list_size (0 -- 20) request_gen in
      let* size = size_gen in
      let* body = list_size (return size) request_gen in
      return (sequence prefix, sequence body))
  in
  QCheck.Test.make ~name:"decide_batch = map decide (all strategies/modes)"
    ~count:150 (QCheck.make gen) (fun (prefix, body) ->
      let db = compile_ok mixed_source in
      List.for_all
        (fun strategy ->
          let scalar = Engine.create ~strategy db in
          let batched = Engine.create ~strategy db in
          let reference = Reference.create ~strategy db in
          List.iter
            (fun (req, now) ->
              ignore (Engine.decide ~now scalar req);
              ignore (Engine.decide ~now batched req);
              ignore (Reference.decide ~now reference req))
            prefix;
          let expected = scalar_decisions scalar body in
          expected = batch_decisions batched body
          && expected
             = List.map
                 (fun (req, now) -> fst (Reference.decide ~now reference req))
                 body)
        strategies)

(* A name from a pool, or a fresh copy of one: equal to the pool's
   string but never physically the same, so neither the wire's interning
   nor the mode memo can lean on sharing. *)
let name_gen pool =
  QCheck.Gen.(
    let* s = oneofa pool in
    let* copy = bool in
    return (if copy then Bytes.to_string (Bytes.of_string s) else s))

let wire_request_gen =
  QCheck.Gen.(
    let* subject = name_gen subjects in
    let* asset = name_gen assets in
    let* mode = name_gen modes in
    let* op = oneofl [ Ir.Read; Ir.Write ] in
    let* msg_id =
      oneof [ return None; map (fun id -> Some id) (0x0f0 -- 0x320) ]
    in
    return { Ir.mode; subject; asset; op; msg_id })

(* The daemon's path: the client interns and encodes the batch, the
   daemon decodes it and fills an arena from the tables at one [now]. *)
let wire_batch ~now reqs =
  let b = Batch.create ~capacity:(max 1 (Array.length reqs)) () in
  (match
     Wire.decode_payload
       (Wire.encode_payload
          (Wire.Decide_req { id = 0; reqs = Wire.intern reqs }))
   with
  | Wire.Decide_req { reqs = r; _ } ->
      Wire.fill r ~now
        ~subject_shard:(Array.make (Array.length r.Wire.subjects) 0)
        ~shard:0 b
  | _ -> QCheck.Test.fail_report "a decide decoded as another message");
  b

let same_rows (a : Batch.t) (b : Batch.t) =
  Batch.length a = Batch.length b
  && List.for_all
       (fun i ->
         String.equal a.subjects.(i) b.subjects.(i)
         && String.equal a.assets.(i) b.assets.(i)
         && String.equal a.modes.(i) b.modes.(i)
         && a.ops.(i) = b.ops.(i)
         && a.msg_ids.(i) = b.msg_ids.(i)
         && a.nows.(i) = b.nows.(i)
         && a.exact_hash.(i) = b.exact_hash.(i)
         && a.wild_hash.(i) = b.wild_hash.(i))
       (List.init (Batch.length a) Fun.id)

(* The tail arrives as one decide, stamped with one [now] as the daemon
   stamps a batch: the arena the wire fills holds, row for row, what
   [Batch.push] puts there, and decides as [Batch.push]'s arena and the
   scalar engine do, from the same random rate-limiter state. *)
let prop_wire_fill_equals_push =
  let gen =
    QCheck.Gen.(
      let* prefix = list_size (0 -- 20) request_gen in
      let* size = size_gen in
      let* body = array_size (return size) wire_request_gen in
      let* dt = 0 -- 300 in
      return (sequence prefix, body, float_of_int dt /. 1000.))
  in
  QCheck.Test.make
    ~name:"arena filled from the wire = Batch.push (all strategies)"
    ~count:150 (QCheck.make gen) (fun (prefix, body, dt) ->
      let db = compile_ok mixed_source in
      let now = List.fold_left (fun _ (_, t) -> t) 0.0 prefix +. dt in
      let n = Array.length body in
      let pushed = Batch.create ~capacity:(max 1 n) () in
      Array.iter (Batch.push ~now pushed) body;
      let wired = wire_batch ~now body in
      same_rows pushed wired
      && List.for_all
           (fun strategy ->
             let engines = Array.init 3 (fun _ -> Engine.create ~strategy db) in
             Array.iter
               (fun e ->
                 List.iter
                   (fun (req, t) -> ignore (Engine.decide ~now:t e req))
                   prefix)
               engines;
             let expected =
               Array.map
                 (fun req ->
                   (Engine.decide ~now engines.(0) req).Engine.decision)
                 body
             in
             let decide e b =
               let out = Array.make (max 1 n) Ast.Deny in
               Engine.decide_batch e b ~out;
               Array.sub out 0 n
             in
             decide engines.(1) pushed = expected
             && decide engines.(2) wired = expected)
           strategies)

let test_huge_batch () =
  let db = compile_ok mixed_source in
  let n = 8192 in
  let reqs =
    List.init n (fun i ->
        ( {
            Ir.mode = modes.(i mod Array.length modes);
            subject = subjects.(i mod Array.length subjects);
            asset = assets.(i mod Array.length assets);
            op = (if i mod 2 = 0 then Ir.Read else Ir.Write);
            msg_id = (if i mod 3 = 0 then None else Some (0x0f0 + (i mod 600)));
          },
          float_of_int i /. 100. ))
  in
  List.iter
    (fun strategy ->
      let scalar = Engine.create ~strategy db in
      let batched = Engine.create ~strategy db in
      Alcotest.(check (list bool))
        "huge batch agrees"
        (List.map (fun d -> d = Ast.Allow) (scalar_decisions scalar reqs))
        (List.map (fun d -> d = Ast.Allow) (batch_decisions batched reqs)))
    strategies

(* A row callback equivalent to an engine's: a fresh budget table keyed
   (rule index, subject), read at each row's own timestamp. *)
let fresh_budgets () =
  let windows = Hashtbl.create 8 in
  fun (r : Ir.rule) (b : Batch.t) i ->
    Rate_window.admit_rule windows r b.Batch.subjects.(i) ~now:b.Batch.nows.(i)

let batch_of reqs =
  let b = Batch.create ~capacity:(max 1 (List.length reqs)) () in
  List.iter (fun (req, now) -> Batch.push ~now b req) reqs;
  b

(* Deciding rows one at a time, in order, each as a batch of its own over
   one fresh budget table, must reproduce the whole sweep's decisions and
   allow count: rated rows consume in the same order, and modes change
   from row to row. *)
let prop_row_equals_batch =
  let gen =
    QCheck.Gen.(
      let* size = size_gen in
      list_size (return size) request_gen)
  in
  QCheck.Test.make
    ~name:"rows one at a time = decide_batch (all strategies)" ~count:150
    (QCheck.make gen) (fun reqs ->
      let db = compile_ok mixed_source in
      let reqs = sequence reqs in
      List.for_all
        (fun strategy ->
          let table = Table.compile ~strategy db in
          let b = batch_of reqs in
          let n = Batch.length b in
          let out = Array.make (max 1 n) Ast.Deny in
          let allows =
            Table.decide_batch table ~rate_admit:(fresh_budgets ()) b ~out
          in
          let rate_admit = fresh_budgets () in
          let one = Array.make 1 Ast.Deny in
          let rows =
            List.map
              (fun row ->
                ignore
                  (Table.decide_batch table ~rate_admit (batch_of [ row ])
                     ~out:one);
                one.(0))
              reqs
          in
          rows = Array.to_list (Array.sub out 0 n)
          && allows = List.length (List.filter (( = ) Ast.Allow) rows))
        strategies)

(* [mixed_source]'s assets under a policy that interns its modes the
   other way round (mode lists are sorted, so [mixed_source] interns
   fail_safe first; here the first moded rule names normal alone) and
   answers differently per mode: a mode id memoised against one table and
   reused against the other decides the wrong mode. *)
let swapped_source =
  {|
policy "batch_swapped" version 1 {
  default deny;
  mode normal {
    asset brakes {
      allow read from dashboard;
    }
  }
  mode fail_safe {
    asset telemetry {
      allow read from cloud rate 2 per 500;
      allow write from sensors messages 0x200..0x2ff;
    }
  }
  asset engine {
    deny read from stranger;
    allow read from any;
  }
}
|}

(* One batch decided whole against one table, then the other, then the
   first again, must answer each time as a private engine over that
   table: the batch's mode memo, filled against one table, must not be
   reused against the next. *)
let prop_batch_alternating_tables =
  let gen =
    QCheck.Gen.(
      let* size = size_gen in
      list_size (return size) request_gen)
  in
  QCheck.Test.make ~name:"one batch against two tables in turn = engines"
    ~count:150 (QCheck.make gen) (fun reqs ->
      let dbs = [| compile_ok mixed_source; compile_ok swapped_source |] in
      let reqs = sequence reqs in
      List.for_all
        (fun strategy ->
          let tables = Array.map (Table.compile ~strategy) dbs in
          let b = batch_of reqs in
          let out = Array.make (max 1 (Batch.length b)) Ast.Deny in
          List.for_all
            (fun k ->
              let engine = Engine.create ~strategy dbs.(k) in
              ignore
                (Table.decide_batch tables.(k) ~rate_admit:(fresh_budgets ()) b
                   ~out);
              List.for_all2
                (fun (req, now) decision ->
                  decision = (Engine.decide ~now engine req).Engine.decision)
                reqs
                (Array.to_list (Array.sub out 0 (Batch.length b))))
            [ 0; 1; 0 ])
        strategies)

(* No rates here: rate callbacks are outside the zero-allocation contract
   (they box the timestamp), so this policy keeps the whole batch on the
   contract's path while still exercising dispatch, modes and ranges. *)
let unrated_source =
  {|
policy "batch_unrated" version 1 {
  default deny;
  asset engine {
    allow read from any;
  }
  mode normal, fail_safe {
    asset brakes {
      allow write from safety messages 0x100..0x10f;
      deny  write from infotainment;
    }
  }
}
|}

(* Minor-heap usage of one decide_batch call over a warmed engine/arena.
   Per-request allocation would make the delta grow with the batch, so
   asserting delta(8192 requests) = delta(1 request) pins the per-request
   cost to exactly zero while tolerating the O(1) per-call constants (the
   allow-count ref, Gc.minor_words' own boxed result). *)
let minor_delta engine n =
  let b = Batch.create ~capacity:n () in
  for i = 0 to n - 1 do
    Batch.push b
      {
        Ir.mode = (if i mod 2 = 0 then "normal" else "fail_safe");
        subject = subjects.(i mod Array.length subjects);
        asset = assets.(i mod Array.length assets);
        op = (if i mod 2 = 0 then Ir.Read else Ir.Write);
        msg_id = (if i mod 3 = 0 then None else Some (0x100 + (i mod 32)));
      }
  done;
  let out = Array.make n Ast.Deny in
  Engine.decide_batch engine b ~out;
  (* warm: mode memo, lazy engine state *)
  let w0 = Gc.minor_words () in
  Engine.decide_batch engine b ~out;
  Gc.minor_words () -. w0

let test_zero_allocation () =
  let db = compile_ok unrated_source in
  let engine = Engine.create db in
  let small = minor_delta engine 1 in
  let large = minor_delta engine 8192 in
  Alcotest.(check (float 0.5))
    "minor words are batch-size independent" small large

let () =
  Alcotest.run "secpol_batch"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_batch_equals_scalar;
          QCheck_alcotest.to_alcotest prop_wire_fill_equals_push;
          quick "huge batch (8192) agrees with scalar" test_huge_batch;
        ] );
      ( "rows",
        [
          QCheck_alcotest.to_alcotest prop_row_equals_batch;
          QCheck_alcotest.to_alcotest prop_batch_alternating_tables;
        ] );
      ("allocation", [ quick "compiled batch path is zero-allocation"
                         test_zero_allocation ]);
    ]
