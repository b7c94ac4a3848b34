(* Tests for the batched decision path: {!Engine.decide_batch} must agree
   decision-for-decision with per-request {!Engine.decide} — across all
   three strategies, both engine modes, random rate-limiter states and
   batch sizes 0/1/odd/huge — {!Table.decide_row} must decide each row as
   the batch sweep does, and the compiled path must not allocate per
   request. *)

module Ast = Secpol_policy.Ast
module Parser = Secpol_policy.Parser
module Compile = Secpol_policy.Compile
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Batch = Secpol_policy.Batch
module Table = Secpol_policy.Table
module Rate_window = Secpol_policy.Rate_window

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

let engine_modes = [ `Interpreted; `Compiled ]

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

(* The property: two engines over the same db, primed with the same scalar
   prefix (so their rate-limiter budgets are in the same — random — state),
   must produce identical decisions whether the tail is served one request
   at a time or as one batch. *)
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
          List.for_all
            (fun mode ->
              let scalar =
                Engine.create ~strategy ~mode ~cache:false db
              in
              let batched =
                Engine.create ~strategy ~mode ~cache:false db
              in
              List.iter
                (fun (req, now) ->
                  ignore (Engine.decide ~now scalar req);
                  ignore (Engine.decide ~now batched req))
                prefix;
              scalar_decisions scalar body = batch_decisions batched body)
            engine_modes)
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
      let scalar = Engine.create ~strategy ~mode:`Compiled ~cache:false db in
      let batched = Engine.create ~strategy ~mode:`Compiled ~cache:false db in
      Alcotest.(check (list bool))
        "huge batch agrees"
        (List.map (fun d -> d = Ast.Allow) (scalar_decisions scalar reqs))
        (List.map (fun d -> d = Ast.Allow) (batch_decisions batched reqs)))
    strategies

(* Row callbacks equivalent to an engine's: a fresh budget table keyed
   (rule index, subject), read at each row's own timestamp. *)
let fresh_budgets () =
  let windows = Hashtbl.create 8 in
  let window (r : Ir.rule) rate (b : Batch.t) i =
    let key = (r.Ir.idx, b.Batch.subjects.(i)) in
    match Hashtbl.find_opt windows key with
    | Some w -> w
    | None ->
        let w = Rate_window.of_rate rate in
        Hashtbl.replace windows key w;
        w
  in
  let rate_available (r : Ir.rule) (b : Batch.t) i =
    match r.rate with
    | None -> true
    | Some rate ->
        Rate_window.available (window r rate b i) ~now:b.Batch.nows.(i)
  in
  let rate_consume (r : Ir.rule) (b : Batch.t) i =
    match r.rate with
    | None -> ()
    | Some rate ->
        Rate_window.consume (window r rate b i) ~now:b.Batch.nows.(i)
  in
  (rate_available, rate_consume)

let batch_of reqs =
  let b = Batch.create ~capacity:(max 1 (List.length reqs)) () in
  List.iter (fun (req, now) -> Batch.push ~now b req) reqs;
  b

(* Deciding rows one at a time, in order, over a fresh budget table must
   reproduce the sweep's decisions and allow count: rated rows consume in
   the same order, and modes change from row to row. *)
let prop_row_equals_batch =
  let gen =
    QCheck.Gen.(
      let* size = size_gen in
      list_size (return size) request_gen)
  in
  QCheck.Test.make ~name:"decide_row in order = decide_batch (all strategies)"
    ~count:150 (QCheck.make gen) (fun reqs ->
      let db = compile_ok mixed_source in
      let reqs = sequence reqs in
      List.for_all
        (fun strategy ->
          let table = Table.compile ~strategy db in
          let b = batch_of reqs in
          let n = Batch.length b in
          let out = Array.make (max 1 n) Ast.Deny in
          let rate_available, rate_consume = fresh_budgets () in
          let allows =
            Table.decide_batch table ~rate_available ~rate_consume b ~out
          in
          let rate_available, rate_consume = fresh_budgets () in
          let rows =
            List.init n (fun i ->
                Table.decide_row table ~rate_available ~rate_consume b i)
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

(* One batch decided row by row, each row against a randomly chosen one
   of two tables, must answer as two private engines that each see only
   their own table's rows. *)
let prop_row_alternating_tables =
  let gen =
    QCheck.Gen.(
      let* size = size_gen in
      list_size (return size) (pair request_gen bool))
  in
  QCheck.Test.make ~name:"decide_row against two tables in turn = engines"
    ~count:150 (QCheck.make gen) (fun steps ->
      let dbs = [| compile_ok mixed_source; compile_ok swapped_source |] in
      let reqs = sequence (List.map fst steps) in
      let picks =
        Array.of_list (List.map (fun (_, second) -> Bool.to_int second) steps)
      in
      List.for_all
        (fun strategy ->
          let tables = Array.map (Table.compile ~strategy) dbs in
          let engines = Array.map (Engine.create ~strategy ~cache:false) dbs in
          let budgets = Array.init 2 (fun _ -> fresh_budgets ()) in
          let b = batch_of reqs in
          List.for_all
            (fun (i, (req, now)) ->
              let k = picks.(i) in
              let rate_available, rate_consume = budgets.(k) in
              Table.decide_row tables.(k) ~rate_available ~rate_consume b i
              = (Engine.decide ~now engines.(k) req).Engine.decision)
            (List.mapi (fun i r -> (i, r)) reqs))
        strategies)

let test_row_bounds () =
  let table =
    Table.compile ~strategy:Engine.Deny_overrides (compile_ok mixed_source)
  in
  let rate_available, rate_consume = fresh_budgets () in
  let row b i () =
    ignore (Table.decide_row table ~rate_available ~rate_consume b i)
  in
  let oob = Invalid_argument "Table.decide_row: row out of bounds" in
  Alcotest.check_raises "row 0 of an empty batch" oob
    (row (Batch.create ~capacity:4 ()) 0);
  let b = Batch.create ~capacity:8 () in
  for _ = 1 to 3 do
    Batch.push b
      {
        Ir.mode = "normal";
        subject = "dashboard";
        asset = "brakes";
        op = Ir.Read;
        msg_id = None;
      }
  done;
  Alcotest.check_raises "row -1" oob (row b (-1));
  Alcotest.check_raises "row = length" oob (row b 3);
  Alcotest.check_raises "row past the length, within capacity" oob (row b 5);
  Alcotest.check_raises "row = capacity" oob (row b 8);
  Alcotest.(check bool) "last row decides" true
    (Table.decide_row table ~rate_available ~rate_consume b 2 = Ast.Allow)

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
  let engine = Engine.create ~mode:`Compiled ~cache:false db in
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
          quick "huge batch (8192) agrees with scalar" test_huge_batch;
        ] );
      ( "rows",
        [
          QCheck_alcotest.to_alcotest prop_row_equals_batch;
          QCheck_alcotest.to_alcotest prop_row_alternating_tables;
          quick "decide_row bounds" test_row_bounds;
        ] );
      ("allocation", [ quick "compiled batch path is zero-allocation"
                         test_zero_allocation ]);
    ]
