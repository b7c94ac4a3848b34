module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
module Batch = Secpol_policy.Batch
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Registry = Secpol_obs.Registry
module Clock = Secpol_obs.Clock

type stats = {
  domains : int;
  served : int;
  per_shard : int array;
  elapsed_s : float;
  throughput : float;
  engine : Engine.stats;
}

type result = {
  outcomes : Engine.outcome array;
  registry : Registry.t;
  stats : stats;
}

type batch_result = {
  decisions : Ast.decision array;
  registry : Registry.t;
  stats : stats;
}

(* One shard's work: a private engine over the shared table, a private
   registry, decisions taken in slice order (= input order). *)
let serve_slice table db work idxs =
  let registry = Registry.create () in
  let engine = Engine.of_table ~obs:registry table db in
  let outcomes =
    Array.map
      (fun i ->
        let now, req = work.(i) in
        Engine.decide ~now engine req)
      idxs
  in
  (outcomes, registry, Engine.stats engine)

(* One shard's work on the batched path: pack the whole slice into a
   struct-of-arrays arena once, then decide it in bulk — the per-request
   loop is {!Secpol_policy.Engine.decide_batch}'s allocation-free column
   sweep instead of one [Engine.decide] call (and outcome record) per
   request. *)
let serve_slice_batch table db work idxs =
  let registry = Registry.create () in
  let engine = Engine.of_table ~obs:registry table db in
  let n = Array.length idxs in
  let batch = Batch.create ~capacity:(max 1 n) () in
  Array.iter
    (fun i ->
      let now, req = work.(i) in
      Batch.push ~now batch req)
    idxs;
  let decisions = Array.make n Ast.Deny in
  Engine.decide_batch engine batch ~out:decisions;
  (decisions, registry, Engine.stats engine)

let scatter n slices =
  let out = Array.make n None in
  List.iter
    (fun (idxs, values) ->
      Array.iteri (fun k i -> out.(i) <- Some values.(k)) idxs)
    slices;
  Array.map (function Some v -> v | None -> assert false) out

(* Put the shards' per-request values back in input order, merge their
   registries and sum their engine stats. *)
let gather ~domains ~started slices =
  let n =
    List.fold_left (fun a (idxs, _, _, _) -> a + Array.length idxs) 0 slices
  in
  let registry = Registry.create () in
  let engine =
    List.fold_left
      (fun acc (_, _, shard_registry, shard_stats) ->
        Registry.merge_into ~into:registry shard_registry;
        Engine.add_stats acc shard_stats)
      Engine.zero_stats slices
  in
  let values =
    scatter n (List.map (fun (idxs, values, _, _) -> (idxs, values)) slices)
  in
  (* Clamp to the clock's resolution: a sub-resolution quick run then
     reports a conservative lower bound on throughput instead of 0.0,
     which would poison downstream ratio gates. *)
  let elapsed_s = Float.max (Clock.now () -. started) Clock.resolution in
  ( values,
    registry,
    {
      domains;
      served = n;
      per_shard =
        Array.of_list
          (List.map (fun (idxs, _, _, _) -> Array.length idxs) slices);
      elapsed_s;
      throughput = float_of_int n /. elapsed_s;
      engine;
    } )

(* Start barrier: [Domain.spawn] costs ~ms per domain, so starting the
   clock before spawning bills startup as serving time — at quick sizes
   that understates multi-domain throughput enough to flap scaling
   gates.  Each worker signals ready then parks on a condition variable
   until released; the clock starts only once every domain is running.
   Parking (rather than spinning) matters when domains outnumber cores:
   a spinning worker must burn a scheduling quantum just to notice the
   release, which would land inside the timed region. *)
let with_start_barrier ~domains spawn_workers =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let ready = ref 0 in
  let go = ref false in
  let gate () =
    Mutex.lock mu;
    incr ready;
    if !ready = domains then Condition.broadcast cv;
    while not !go do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let workers = spawn_workers gate in
  Mutex.lock mu;
  while !ready < domains do
    Condition.wait cv mu
  done;
  let started = Clock.now () in
  go := true;
  Condition.broadcast cv;
  Mutex.unlock mu;
  (started, workers)

(* Serve [work] on [domains] spawned domains, each running [slice] over
   the shard {!Partition.assign} gives it.  The timed region is serving
   only: compile, partition and domain startup are one-time costs
   excluded by the start barrier. *)
let sharded ~name ~domains ~key ~strategy slice db work =
  if domains < 1 then invalid_arg (name ^ ": domains < 1");
  let table = Table.compile ~strategy db in
  let shards = Partition.assign key ~shards:domains (Array.map snd work) in
  let started, workers =
    with_start_barrier ~domains:(Array.length shards) (fun gate ->
        Array.map
          (fun idxs ->
            Domain.spawn (fun () ->
                gate ();
                slice table db work idxs))
          shards)
  in
  let slices =
    Array.to_list
      (Array.map2
         (fun idxs worker ->
           let values, registry, stats = Domain.join worker in
           (idxs, values, registry, stats))
         shards workers)
  in
  gather ~domains ~started slices

let sequential ~strategy slice db work =
  let table = Table.compile ~strategy db in
  let idxs = Array.init (Array.length work) Fun.id in
  let started = Clock.now () in
  let values, registry, stats = slice table db work idxs in
  gather ~domains:1 ~started [ (idxs, values, registry, stats) ]

let run ?(domains = 1) ?(key = Partition.Subject)
    ?(strategy = Engine.Deny_overrides) db work =
  let outcomes, registry, stats =
    sharded ~name:"Serve.run" ~domains ~key ~strategy serve_slice db work
  in
  { outcomes; registry; stats }

let run_sequential ?(strategy = Engine.Deny_overrides) db work =
  let outcomes, registry, stats = sequential ~strategy serve_slice db work in
  { outcomes; registry; stats }

let run_batch ?(domains = 1) ?(key = Partition.Subject)
    ?(strategy = Engine.Deny_overrides) db work =
  let decisions, registry, stats =
    sharded ~name:"Serve.run_batch" ~domains ~key ~strategy serve_slice_batch
      db work
  in
  { decisions; registry; stats }

let run_batch_sequential ?(strategy = Engine.Deny_overrides) db work =
  let decisions, registry, stats =
    sequential ~strategy serve_slice_batch db work
  in
  { decisions; registry; stats }
