(* Tests for the shard-per-domain parallel layer: partitioning, sharded
   decision serving, sharded HPE frame gating, and the property that every
   sharded run is observably identical to the sequential engine. *)

module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Compile = Secpol_policy.Compile
module Engine = Secpol_policy.Engine
module Partition = Secpol_par.Partition
module Serve = Secpol_par.Serve
module Frame_gate = Secpol_par.Frame_gate
module Config = Secpol_hpe.Config
module Identifier = Secpol_can.Identifier
module Registry = Secpol_obs.Registry
module Counter = Secpol_obs.Counter
module Histogram = Secpol_obs.Histogram
module Clock = Secpol_obs.Clock

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

(* ---------- Partitioner ---------- *)

let test_fnv_pins () =
  (* published FNV-1a 32-bit vectors: the shard assignment is a contract,
     so the hash must never drift *)
  check Alcotest.int "offset basis" 0x811c9dc5 (Partition.hash_string "");
  check Alcotest.int "fnv(a)" 0xe40c292c (Partition.hash_string "a");
  check Alcotest.int "fnv(foobar)" 0xbf9cf968 (Partition.hash_string "foobar")

let test_assign_partitions () =
  let items = Array.init 100 (fun i -> Printf.sprintf "item%d" i) in
  let shards = Partition.assign_by ~shards:4 Fun.id items in
  check Alcotest.int "4 shards" 4 (Array.length shards);
  let seen = Array.make 100 false in
  Array.iteri
    (fun s idxs ->
      Array.iter
        (fun i ->
          Alcotest.(check bool) "no duplicate routing" false seen.(i);
          seen.(i) <- true;
          check Alcotest.int "routed by hash" s
            (Partition.shard_of_string ~shards:4 items.(i)))
        idxs;
      let l = Array.to_list idxs in
      Alcotest.(check bool) "input order preserved" true
        (List.sort compare l = l))
    shards;
  Alcotest.(check bool) "every item owned" true (Array.for_all Fun.id seen)

let test_assign_validates () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Partition.assign_by: shards < 1") (fun () ->
      ignore (Partition.assign_by ~shards:0 Fun.id [| "a" |]))

(* ---------- Sharded serving vs the sequential engine ---------- *)

let registry_counters r =
  List.map (fun (name, c) -> (name, Counter.value c)) (Registry.counters r)

let registry_histogram_counts r =
  List.map (fun (name, h) -> (name, Histogram.count h)) (Registry.histograms r)

let same_as_sequential ?strategy db work =
  let seq = Serve.run_sequential ?strategy db work in
  List.for_all
    (fun key ->
      List.for_all
        (fun domains ->
          let par = Serve.run ~domains ~key ?strategy db work in
          par.Serve.outcomes = seq.Serve.outcomes
          && par.Serve.stats.engine = seq.Serve.stats.engine
          && registry_counters par.Serve.registry
             = registry_counters seq.Serve.registry
          && registry_histogram_counts par.Serve.registry
             = registry_histogram_counts seq.Serve.registry)
        [ 1; 2; 4 ])
    [ Partition.Subject; Partition.Asset ]

let rated_source =
  "policy \"p\" version 1 { default deny; asset lock { allow write from any \
   rate 2 per 1000; } asset telemetry { allow read from any; deny write \
   from infotainment; } }"

let compile_ok src =
  match Compile.of_source src with Ok db -> db | Error e -> failwith e

let test_serve_matches_sequential () =
  let db = compile_ok rated_source in
  let subjects = [ "alice"; "bob"; "carol"; "infotainment"; "dave" ] in
  let work =
    Array.init 400 (fun k ->
        let subject = List.nth subjects (k mod 5) in
        let asset = if k mod 3 = 0 then "telemetry" else "lock" in
        let op = if k mod 3 = 0 then Ir.Read else Ir.Write in
        ( float_of_int k *. 0.01,
          { Ir.mode = "normal"; subject; asset; op; msg_id = None } ))
  in
  Alcotest.(check bool)
    "sharded runs identical to the sequential engine (rates, caches, \
     telemetry)"
    true
    (same_as_sequential db work)

let test_serve_stats_shape () =
  let db = compile_ok rated_source in
  let work =
    Array.init 50 (fun k ->
        ( float_of_int k,
          {
            Ir.mode = "normal";
            subject = Printf.sprintf "s%d" (k mod 7);
            asset = "lock";
            op = Ir.Write;
            msg_id = None;
          } ))
  in
  let r = Serve.run ~domains:3 db work in
  check Alcotest.int "domains" 3 r.Serve.stats.domains;
  check Alcotest.int "served" 50 r.Serve.stats.served;
  check Alcotest.int "one slice per shard" 3
    (Array.length r.Serve.stats.per_shard);
  check Alcotest.int "per-shard counts sum to served" 50
    (Array.fold_left ( + ) 0 r.Serve.stats.per_shard);
  check Alcotest.int "every request decided" 50
    r.Serve.stats.engine.Engine.decisions

(* The timed region must start only after every domain is running:
   [Domain.spawn] costs ~ms per domain, and billing startup as serving
   time made the measured region scale with the domain count.  The
   observable contract: the wall time of a [Serve.run] call spent
   OUTSIDE the reported [elapsed_s] must at least cover the cost of
   spawning the domains.  Before the barrier fix that gap was only the
   policy compile + partition (microseconds), so the assertion bites. *)
let test_serve_excludes_spawn_overhead () =
  let db = compile_ok rated_source in
  let domains = 8 in
  let work =
    Array.init domains (fun k ->
        ( float_of_int k,
          {
            Ir.mode = "normal";
            subject = Printf.sprintf "s%d" k;
            asset = "lock";
            op = Ir.Write;
            msg_id = None;
          } ))
  in
  (* startup cost: spawn [domains] domains and wait until all are
     running — exactly the phase the start barrier keeps off the clock.
     Joins happen outside the measurement. *)
  let spawn_sample () =
    let mu = Mutex.create () in
    let cv = Condition.create () in
    let ready = ref 0 in
    let go = ref false in
    let t0 = Clock.now () in
    let ds =
      Array.init domains (fun _ ->
          Domain.spawn (fun () ->
              Mutex.lock mu;
              incr ready;
              if !ready = domains then Condition.broadcast cv;
              while not !go do
                Condition.wait cv mu
              done;
              Mutex.unlock mu))
    in
    Mutex.lock mu;
    while !ready < domains do
      Condition.wait cv mu
    done;
    let dt = Clock.now () -. t0 in
    go := true;
    Condition.broadcast cv;
    Mutex.unlock mu;
    Array.iter Domain.join ds;
    dt
  in
  let outside_sample () =
    let t0 = Clock.now () in
    let r = Serve.run ~domains db work in
    Clock.now () -. t0 -. r.Serve.stats.elapsed_s
  in
  (* Both sides are wall-clock minima, and under a parallel [dune runtest]
     another test binary can hold the cores: one 8-domain spawn then takes
     anywhere from 0.7 to 20 ms.  Minima over separate phases (or over
     unequal sample counts) let one side catch a quiet machine the other
     never saw, so the samples alternate, the same number on each side. *)
  let spawn_cost = ref infinity and outside = ref infinity in
  for _ = 1 to 20 do
    spawn_cost := Float.min !spawn_cost (spawn_sample ());
    outside := Float.min !outside (outside_sample ())
  done;
  let spawn_cost = !spawn_cost and outside = !outside in
  check Alcotest.bool
    (Printf.sprintf
       "time outside the measured region (%.6fs) covers spawn cost (%.6fs)"
       outside spawn_cost)
    true
    (outside >= 0.5 *. spawn_cost)

(* A run faster than the clock can measure must clamp to the clock's
   resolution, not report a zero or infinite throughput. *)
let test_serve_throughput_clamped () =
  let db = compile_ok rated_source in
  let work =
    [|
      ( 0.,
        {
          Ir.mode = "normal";
          subject = "alice";
          asset = "lock";
          op = Ir.Write;
          msg_id = None;
        } );
    |]
  in
  let r = Serve.run_sequential db work in
  check Alcotest.bool "elapsed at least clock resolution" true
    (r.Serve.stats.elapsed_s >= Clock.resolution);
  check Alcotest.bool "throughput positive and finite" true
    (r.Serve.stats.throughput > 0.
    && Float.is_finite r.Serve.stats.throughput);
  let b = Serve.run_batch_sequential db work in
  check Alcotest.bool "batched throughput positive and finite" true
    (b.Serve.stats.throughput > 0.
    && Float.is_finite b.Serve.stats.throughput)

let test_serve_validates_domains () =
  let db = compile_ok rated_source in
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Serve.run: domains < 1") (fun () ->
      ignore (Serve.run ~domains:0 db [||]))

(* The batched server must scatter exactly the decisions the scalar
   sharded run produces — same rate consumption per shard, same input
   order — at every domain count and partition key. *)
let test_serve_batch_matches_run () =
  let db = compile_ok rated_source in
  let subjects = [ "alice"; "bob"; "carol"; "infotainment"; "dave" ] in
  let work =
    Array.init 400 (fun k ->
        let subject = List.nth subjects (k mod 5) in
        let asset = if k mod 3 = 0 then "telemetry" else "lock" in
        let op = if k mod 3 = 0 then Ir.Read else Ir.Write in
        ( float_of_int k *. 0.01,
          { Ir.mode = "normal"; subject; asset; op; msg_id = None } ))
  in
  let seq = Serve.run_batch_sequential db work in
  let scalar = Serve.run_sequential db work in
  Alcotest.(check bool) "sequential batch = sequential scalar decisions" true
    (Array.to_list seq.Serve.decisions
    = List.map
        (fun (o : Secpol_policy.Engine.outcome) -> o.decision)
        (Array.to_list scalar.Serve.outcomes));
  List.iter
    (fun key ->
      List.iter
        (fun domains ->
          let par = Serve.run_batch ~domains ~key db work in
          Alcotest.(check bool)
            (Printf.sprintf "batched %d-domain run = sequential (%s)" domains
               (match key with
               | Partition.Subject -> "subject"
               | Partition.Asset -> "asset"))
            true
            (par.Serve.decisions = seq.Serve.decisions))
        [ 1; 2; 4 ])
    [ Partition.Subject; Partition.Asset ]

(* ---------- Random policies: the qcheck determinism harness ---------- *)

let keywords =
  [
    "policy"; "version"; "mode"; "asset"; "default"; "allow"; "deny"; "read";
    "write"; "rw"; "from"; "messages"; "rate"; "per"; "any";
  ]

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) ->
        let word =
          String.make 1 c ^ String.concat "" (List.map (String.make 1) rest)
        in
        if List.mem word keywords then word ^ "_x" else word)
      (pair (char_range 'a' 'z') (small_list (char_range 'a' 'z'))))

let rule_gen =
  QCheck.Gen.(
    let* decision = oneofl [ Ast.Allow; Ast.Deny ] in
    let* op = oneofl [ Ast.Read; Ast.Write; Ast.Rw ] in
    let* subjects =
      oneof
        [
          return Ast.Any_subject;
          map (fun l -> Ast.Subjects l) (list_size (1 -- 3) ident_gen);
        ]
    in
    let* messages =
      oneof
        [
          return None;
          map
            (fun ids ->
              Some
                (List.map (fun (lo, extra) -> Ast.range lo (lo + extra)) ids))
            (list_size (1 -- 2) (pair (0 -- 50) (0 -- 10)));
        ]
    in
    let* rate =
      if decision = Ast.Deny then return None
      else
        oneof
          [
            return None;
            map
              (fun (count, window_ms) -> Some (Ast.rate_limit ~count ~window_ms))
              (pair (1 -- 5) (1 -- 2_000));
          ]
    in
    return { Ast.decision; op; subjects; messages; rate })

let policy_gen =
  QCheck.Gen.(
    let block_gen =
      let* asset = ident_gen in
      let* rules = list_size (1 -- 3) rule_gen in
      return { Ast.asset; rules }
    in
    let section_gen =
      oneof
        [
          map (fun b -> Ast.Global b) block_gen;
          (let* modes = list_size (1 -- 2) ident_gen in
           let* blocks = list_size (1 -- 2) block_gen in
           return (Ast.Modes (modes, blocks)));
        ]
    in
    let* name = ident_gen in
    let* version = 0 -- 100 in
    let* default =
      oneofl [ []; [ Ast.Default Ast.Deny ]; [ Ast.Default Ast.Allow ] ]
    in
    let* sections = list_size (1 -- 3) section_gen in
    return { Ast.name; version; sections = default @ sections })

(* requests relevant to a database: its assets and subjects plus strangers,
   probed at advancing clocks so rate budgets go through grant, exhaustion
   and window expiry *)
let work_for (db : Ir.db) =
  let assets = "stranger_asset" :: Ir.assets db in
  let subjects = "stranger_subject" :: Ir.subjects db in
  let reqs =
    List.concat_map
      (fun asset ->
        List.concat_map
          (fun subject ->
            List.concat_map
              (fun op ->
                [
                  { Ir.mode = "normal"; subject; asset; op; msg_id = None };
                  { Ir.mode = "normal"; subject; asset; op; msg_id = Some 5 };
                ])
              [ Ir.Read; Ir.Write ])
          subjects)
      assets
  in
  Array.of_list
    (List.concat_map
       (fun now -> List.map (fun r -> (now, r)) reqs)
       [ 0.0; 0.0; 0.001; 0.5; 20.0 ])

let prop_sharded_equals_sequential =
  QCheck.Test.make
    ~name:
      "sharded runs = sequential engine on random policies (decisions, \
       stats, merged telemetry)"
    ~count:30 (QCheck.make policy_gen) (fun p ->
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) -> same_as_sequential db (work_for db))

(* ---------- Sharded frame gating ---------- *)

let rate count window_ms = Ast.rate_limit ~count ~window_ms

let gate_configs =
  [
    ( "alpha",
      Config.make
        ~write_rates:[ (0x10, rate 1 1000) ]
        ~own_ids:[ 0x20 ] ~read_ids:[ 0x30; 0x31 ] ~write_ids:[ 0x10 ] () );
    ( "beta",
      Config.make ~own_ids:[ 0x30 ] ~read_ids:[ 0x10; 0x20 ]
        ~write_ids:[ 0x30; 0x31 ] () );
  ]

let gate_events =
  (* interleaved traffic for two guarded nodes and one unguarded alien;
     alpha's writes exceed their budget, both nodes see a spoof attempt *)
  let e time node dir id =
    { Frame_gate.time; node; dir; id = Identifier.standard id }
  in
  [|
    e 0.0 "alpha" Frame_gate.Tx 0x10;
    e 0.1 "beta" Frame_gate.Tx 0x30;
    e 0.2 "alpha" Frame_gate.Tx 0x10;
    e 0.3 "beta" Frame_gate.Rx 0x10;
    e 0.4 "alpha" Frame_gate.Rx 0x20;
    e 0.5 "alien" Frame_gate.Tx 0x7f;
    e 0.6 "beta" Frame_gate.Rx 0x30;
    e 0.7 "alpha" Frame_gate.Rx 0x30;
    e 0.8 "beta" Frame_gate.Tx 0x31;
    e 0.9 "alpha" Frame_gate.Tx 0x55;
    e 1.3 "alpha" Frame_gate.Tx 0x10;
  |]

let test_frame_gate_verdicts () =
  let r = Frame_gate.run_sequential gate_configs gate_events in
  let expect =
    [|
      Frame_gate.Grant (* alpha write within budget *);
      Frame_gate.Grant (* beta writes its own id *);
      Frame_gate.Rate_block (* alpha's budget is spent *);
      Frame_gate.Grant (* beta reads 0x10 *);
      Frame_gate.Block (* 0x20 is alpha's own id: spoof *);
      Frame_gate.Grant (* alien node is unguarded *);
      Frame_gate.Block (* 0x30 is beta's own id: spoof *);
      Frame_gate.Grant (* alpha reads 0x30 *);
      Frame_gate.Grant (* beta writes 0x31 *);
      Frame_gate.Block (* 0x55 not write-approved for alpha *);
      Frame_gate.Grant (* alpha's grant at 0.0 expired at 1.0 *);
    |]
  in
  Alcotest.(check bool) "verdict sequence" true (r.Frame_gate.verdicts = expect);
  check Alcotest.int "granted" 7 r.Frame_gate.stats.granted;
  check Alcotest.int "blocked" 3 r.Frame_gate.stats.blocked;
  check Alcotest.int "rate blocked" 1 r.Frame_gate.stats.rate_blocked

let test_frame_gate_matches_sequential () =
  let seq = Frame_gate.run_sequential gate_configs gate_events in
  List.iter
    (fun domains ->
      let par = Frame_gate.run ~domains gate_configs gate_events in
      Alcotest.(check bool)
        (Printf.sprintf "%d-domain verdicts" domains)
        true
        (par.Frame_gate.verdicts = seq.Frame_gate.verdicts);
      Alcotest.(check bool)
        (Printf.sprintf "%d-domain merged counters" domains)
        true
        (registry_counters par.Frame_gate.registry
        = registry_counters seq.Frame_gate.registry))
    [ 1; 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "partition",
        [
          quick "fnv-1a pins" test_fnv_pins;
          quick "assign covers and preserves order" test_assign_partitions;
          quick "validation" test_assign_validates;
        ] );
      ( "serve",
        [
          quick "matches sequential (rated policy)" test_serve_matches_sequential;
          quick "stats shape" test_serve_stats_shape;
          quick "spawn cost outside timed region"
            test_serve_excludes_spawn_overhead;
          quick "throughput clamped at clock resolution"
            test_serve_throughput_clamped;
          quick "validation" test_serve_validates_domains;
          quick "batched run matches scalar run" test_serve_batch_matches_run;
          QCheck_alcotest.to_alcotest prop_sharded_equals_sequential;
        ] );
      ( "frame gate",
        [
          quick "verdicts" test_frame_gate_verdicts;
          quick "matches sequential" test_frame_gate_matches_sequential;
        ] );
    ]
