(* Tests for the shard-per-domain parallel layer: partitioning, sharded
   decision serving on the pool, and the property that every sharded run
   is observably identical to one engine deciding in input order. *)

module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Compile = Secpol_policy.Compile
module Engine = Secpol_policy.Engine
module Partition = Secpol_par.Partition
module Serve = Secpol_par.Serve
module Registry = Secpol_obs.Registry
module Counter = Secpol_obs.Counter
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

(* every hash mod 1 is 0, so one shard owns every index, in order, and
   the labels need not be computed *)
let test_assign_one_shard_skips_labels () =
  let labels = ref 0 in
  let shards =
    Partition.assign_by ~shards:1
      (fun i ->
        incr labels;
        string_of_int i)
      (Array.init 50 Fun.id)
  in
  check
    Alcotest.(array (array int))
    "every index in order" [| Array.init 50 Fun.id |] shards;
  check Alcotest.int "no label computed" 0 !labels

let test_assign_validates () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Partition.assign_by: shards < 1") (fun () ->
      ignore (Partition.assign_by ~shards:0 Fun.id [| "a" |]))

(* ---------- Sharded serving vs one in-order engine ---------- *)

let registry_counters r =
  List.map (fun (name, c) -> (name, Counter.value c)) (Registry.counters r)

(* Latency histograms are left out: [decide_batch] observes once per
   batch, so k shards record k observations where the scalar engine
   records one per request. *)
let same_as_sequential ?strategy db work =
  let obs = Registry.create () in
  let engine = Engine.create ?strategy ~obs db in
  let decisions =
    Array.map (fun (now, req) -> (Engine.decide ~now engine req).decision) work
  in
  List.for_all
    (fun domains ->
      let par = Serve.run ~domains ?strategy db work in
      par.Serve.decisions = decisions
      && par.Serve.stats.engine = Engine.stats engine
      && registry_counters par.Serve.registry = registry_counters obs)
    [ 1; 2; 4 ]

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
    "sharded runs identical to the in-order engine (rates, telemetry)"
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
   spawning the domains.  Without [Pool.create]'s readiness wait that gap
   would be only the policy compile + partition (microseconds), so the
   assertion bites. *)
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
     running — exactly the phase [Pool.create] keeps off the clock.
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
  let r = Serve.run db work in
  check Alcotest.bool "elapsed at least clock resolution" true
    (r.Serve.stats.elapsed_s >= Clock.resolution);
  check Alcotest.bool "throughput positive and finite" true
    (r.Serve.stats.throughput > 0.
    && Float.is_finite r.Serve.stats.throughput)

let test_serve_validates_domains () =
  let db = compile_ok rated_source in
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Serve.run: domains < 1") (fun () ->
      ignore (Serve.run ~domains:0 db [||]))

(* ---------- Idle shards ---------- *)

(* Every request from one subject lands in one shard; the other workers
   get an empty job and must neither decide nor disturb the merge. *)
let test_idle_shards_single_subject () =
  let db = compile_ok rated_source in
  let work =
    Array.init 60 (fun k ->
        let asset = if k mod 2 = 0 then "lock" else "telemetry" in
        let op = if k mod 2 = 0 then Ir.Write else Ir.Read in
        ( float_of_int k *. 0.1,
          { Ir.mode = "normal"; subject = "alice"; asset; op; msg_id = None } ))
  in
  Alcotest.(check bool) "identical to the in-order engine" true
    (same_as_sequential db work);
  let r = Serve.run ~domains:4 db work in
  check
    Alcotest.(list int)
    "one busy shard, three idle" [ 0; 0; 0; 60 ]
    (List.sort compare (Array.to_list r.Serve.stats.per_shard))

let test_idle_shards_empty_work () =
  let db = compile_ok rated_source in
  let r = Serve.run ~domains:2 db [||] in
  check Alcotest.int "no decisions" 0 (Array.length r.Serve.decisions);
  check Alcotest.int "served" 0 r.Serve.stats.served;
  check
    Alcotest.(list int)
    "both shards idle" [ 0; 0 ]
    (Array.to_list r.Serve.stats.per_shard);
  check Alcotest.int "engine decided nothing" 0
    r.Serve.stats.engine.Engine.decisions;
  check (Alcotest.float 0.) "throughput" 0. r.Serve.stats.throughput

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
       stats, merged counters)"
    ~count:30 (QCheck.make policy_gen) (fun p ->
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) -> same_as_sequential db (work_for db))

let () =
  Alcotest.run "par"
    [
      ( "partition",
        [
          quick "fnv-1a pins" test_fnv_pins;
          quick "assign covers and preserves order" test_assign_partitions;
          quick "one shard needs no labels" test_assign_one_shard_skips_labels;
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
          QCheck_alcotest.to_alcotest prop_sharded_equals_sequential;
        ] );
      ( "idle shard",
        [
          quick "one subject on four domains" test_idle_shards_single_subject;
          quick "empty workload" test_idle_shards_empty_work;
        ] );
    ]
