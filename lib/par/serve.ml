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
  decisions : Ast.decision array;
  registry : Registry.t;
  stats : stats;
}

(* One shard's slice, run on the shard's worker: the daemon's job shape
   (pack into the arena, one [decide_batch]) with each request's own
   timestamp, returning the worker's telemetry alongside. *)
let decide_job work idxs w =
  let n = Array.length idxs in
  let batch = Batch.create ~capacity:(max 1 n) () in
  Array.iter
    (fun i ->
      let now, req = work.(i) in
      Batch.push ~now batch req)
    idxs;
  let out = Array.make n Ast.Deny in
  Engine.decide_batch (Pool.worker_engine w) batch ~out;
  let stats, registry = Pool.worker_snapshot w in
  (out, registry, stats)

let run ?(domains = 1) ?(strategy = Engine.Deny_overrides) db work =
  if domains < 1 then invalid_arg "Serve.run: domains < 1";
  let table = Table.compile ~strategy db in
  let shards =
    Partition.assign_by ~shards:domains
      (fun (_, (req : Ir.request)) -> req.subject)
      work
  in
  let pool = Pool.create ~domains table db in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* timed region: serving only — the pool returns with every worker
         parked, so compile, partition and domain startup stay off it *)
      let started = Clock.now () in
      let tickets =
        Array.mapi
          (fun shard idxs ->
            match Pool.try_submit pool ~shard (decide_job work idxs) with
            | Some ticket -> ticket
            | None -> assert false (* a fresh ring has room for one job *))
          shards
      in
      let n = Array.length work in
      let decisions = Array.make n Ast.Deny in
      let registry = Registry.create () in
      let engine = ref Engine.zero_stats in
      Array.iteri
        (fun shard idxs ->
          let out, shard_registry, shard_stats = Pool.await tickets.(shard) in
          Array.iteri (fun k i -> decisions.(i) <- out.(k)) idxs;
          Registry.merge_into ~into:registry shard_registry;
          engine := Engine.add_stats !engine shard_stats)
        shards;
      (* Clamp to the clock's resolution: a sub-resolution quick run then
         reports a conservative lower bound on throughput instead of 0.0,
         which would poison downstream ratio gates. *)
      let elapsed_s = Float.max (Clock.now () -. started) Clock.resolution in
      {
        decisions;
        registry;
        stats =
          {
            domains;
            served = n;
            per_shard = Array.map Array.length shards;
            elapsed_s;
            throughput = float_of_int n /. elapsed_s;
            engine = !engine;
          };
      })
