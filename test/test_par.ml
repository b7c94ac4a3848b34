(* Tests for the shard-per-domain parallel layer: partitioning, the one
   sharded decide on the pool ([Pool.decide], which secpold and bench
   parscale both call), and the property that every sharded decide is
   observably identical to one engine deciding in input order. *)

module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Batch = Secpol_policy.Batch
module Compile = Secpol_policy.Compile
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Partition = Secpol_par.Partition
module Pool = Secpol_par.Pool
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

let test_partition_validates () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Partition.shard_of_string: shards < 1") (fun () ->
      ignore (Partition.shard_of_string ~shards:0 "a"))

(* ---------- The sharded decide vs one in-order engine ---------- *)

let table_of db = Table.compile ~strategy:Table.Deny_overrides db

(* [work] decided as secpold and parscale decide a batch: one
   [Pool.decide] on a fresh pool of [domains] workers, each row routed by
   its subject and pushed with its own timestamp.  Each shard's
   cumulative stats and registry are then read by a [worker_snapshot]
   job on that shard, so they are read quiesced. *)
let decide_on ~domains db work =
  let pool = Pool.create ~domains (table_of db) db in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let shard_of =
        Array.map
          (fun (_, (req : Ir.request)) ->
            Partition.shard_of_string ~shards:domains req.subject)
          work
      in
      let fill ~shard arena =
        Array.iteri
          (fun i (now, req) ->
            if shard_of.(i) = shard then Batch.push ~now arena req)
          work
      in
      let d =
        Pool.decide pool ~n:(Array.length work)
          ~shard_of_row:(Array.get shard_of) ~fill ~deadline_s:60.0
      in
      let snapshots =
        Array.init domains (fun shard ->
            match Pool.try_submit pool ~shard Pool.worker_snapshot with
            | Some ticket -> Pool.await ticket
            | None -> Alcotest.fail "snapshot refused")
      in
      (d, snapshots))

let registry_counters r =
  List.map (fun (name, c) -> (name, Counter.value c)) (Registry.counters r)

(* Latency histograms are left out: [decide_batch] observes once per
   batch, so k shards record k observations where the scalar engine
   records one per request. *)
let same_as_sequential db work =
  let obs = Registry.create () in
  let engine = Engine.create ~obs db in
  let decisions =
    Array.map (fun (now, req) -> (Engine.decide ~now engine req).decision) work
  in
  List.for_all
    (fun domains ->
      let d, snapshots = decide_on ~domains db work in
      let registry = Registry.create () in
      Array.iter (fun (_, r) -> Registry.merge_into ~into:registry r) snapshots;
      d.Pool.answers = decisions
      && d.stalled + d.late + d.shed = 0
      && Array.fold_left
           (fun acc (stats, _) -> Engine.add_stats acc stats)
           Engine.zero_stats snapshots
         = Engine.stats engine
      && registry_counters registry = registry_counters obs)
    [ 1; 2; 4 ]

let rated_source =
  "policy \"p\" version 1 { default deny; asset lock { allow write from any \
   rate 2 per 1000; } asset telemetry { allow read from any; deny write \
   from infotainment; } }"

let compile_ok src =
  match Compile.of_source src with Ok db -> db | Error e -> failwith e

let test_decide_matches_sequential () =
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
    "sharded decides identical to the in-order engine (rates, telemetry)"
    true
    (same_as_sequential db work)

(* A healthy pool answers every row, and each shard decides exactly the
   rows routed to it. *)
let test_decide_shape () =
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
  let d, snapshots = decide_on ~domains:3 db work in
  check Alcotest.int "one answer per row" 50 (Array.length d.Pool.answers);
  check Alcotest.int "none stalled" 0 d.stalled;
  check Alcotest.int "none late" 0 d.late;
  check Alcotest.int "none shed" 0 d.shed;
  let routed shard =
    Array.fold_left
      (fun n (_, (req : Ir.request)) ->
        if Partition.shard_of_string ~shards:3 req.subject = shard then n + 1
        else n)
      0 work
  in
  Array.iteri
    (fun shard ((stats : Engine.stats), _) ->
      check Alcotest.int
        (Printf.sprintf "shard %d decides its rows" shard)
        (routed shard) stats.decisions)
    snapshots

(* The clock of a run timed after [Pool.create] returns (bench parscale)
   must not bill domain startup: [Domain.spawn] costs ~ms per domain, and
   billing it as serving made the measured region scale with the domain
   count.  The observable contract: [Pool.create] takes at least the time
   spawning the domains and waiting until each runs takes. *)
let test_create_waits_for_workers () =
  let db = compile_ok rated_source in
  let table = table_of db in
  let domains = 8 in
  (* startup cost: spawn [domains] domains and wait until all are
     running.  Joins happen outside the measurement. *)
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
  let create_sample () =
    let t0 = Clock.now () in
    let pool = Pool.create ~domains table db in
    let dt = Clock.now () -. t0 in
    Pool.shutdown pool;
    dt
  in
  (* Both sides are wall-clock minima, and under a parallel [dune runtest]
     another test binary can hold the cores: one 8-domain spawn then takes
     anywhere from 0.7 to 20 ms.  Minima over separate phases (or over
     unequal sample counts) let one side catch a quiet machine the other
     never saw, so the samples alternate, the same number on each side. *)
  let spawn_cost = ref infinity and create = ref infinity in
  for _ = 1 to 20 do
    spawn_cost := Float.min !spawn_cost (spawn_sample ());
    create := Float.min !create (create_sample ())
  done;
  let spawn_cost = !spawn_cost and create = !create in
  check Alcotest.bool
    (Printf.sprintf "Pool.create (%.6fs) covers spawn cost (%.6fs)" create
       spawn_cost)
    true
    (create >= 0.5 *. spawn_cost)

let test_create_validates_domains () =
  let db = compile_ok rated_source in
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Pool.create: domains < 1") (fun () ->
      ignore (Pool.create ~domains:0 (table_of db) db))

(* ---------- Idle shards ---------- *)

(* Every request from one subject lands in one shard; the other workers
   get no job and must neither decide nor disturb the merge. *)
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
  let _, snapshots = decide_on ~domains:4 db work in
  check
    Alcotest.(list int)
    "one busy shard, three idle" [ 0; 0; 0; 60 ]
    (List.sort compare
       (Array.to_list
          (Array.map (fun ((s : Engine.stats), _) -> s.decisions) snapshots)))

let test_idle_shards_empty_work () =
  let db = compile_ok rated_source in
  let d, snapshots = decide_on ~domains:2 db [||] in
  check Alcotest.int "no answers" 0 (Array.length d.Pool.answers);
  check Alcotest.int "nothing stalled, late or shed" 0
    (d.stalled + d.late + d.shed);
  check
    Alcotest.(list int)
    "both shards idle" [ 0; 0 ]
    (Array.to_list
       (Array.map (fun ((s : Engine.stats), _) -> s.decisions) snapshots))

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
          quick "validation" test_partition_validates;
        ] );
      ( "serve",
        [
          quick "matches sequential (rated policy)"
            test_decide_matches_sequential;
          quick "stats shape" test_decide_shape;
          quick "spawn cost outside timed region" test_create_waits_for_workers;
          quick "validation" test_create_validates_domains;
          QCheck_alcotest.to_alcotest prop_sharded_equals_sequential;
        ] );
      ( "idle shard",
        [
          quick "one subject on four domains" test_idle_shards_single_subject;
          quick "empty workload" test_idle_shards_empty_work;
        ] );
    ]
