module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Registry = Secpol_obs.Registry

(* ------------------------------------------------------------------ *)
(* Policy generations                                                  *)
(* ------------------------------------------------------------------ *)

(* The RCU side of the pool: the current policy lives behind one atomic
   pointer.  A swap publishes a whole new generation — epoch, compiled
   table, source db — in a single store; workers re-read the pointer at
   job boundaries and rebind their private engine when the epoch moved.
   Readers never block writers and writers never block readers: the only
   shared mutable word on the decision path is this pointer. *)
type generation = { epoch : int; table : Table.t; db : Ir.db }

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

type 'a state = Pending | Done of 'a | Raised of exn

type 'a ticket = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable state : 'a state;
}

let ticket () = { t_mu = Mutex.create (); t_cv = Condition.create (); state = Pending }

let resolve ticket st =
  Mutex.lock ticket.t_mu;
  ticket.state <- st;
  Condition.broadcast ticket.t_cv;
  Mutex.unlock ticket.t_mu

let await ticket =
  Mutex.lock ticket.t_mu;
  let rec wait () =
    match ticket.state with
    | Pending ->
        Condition.wait ticket.t_cv ticket.t_mu;
        wait ()
    | st -> st
  in
  let st = wait () in
  Mutex.unlock ticket.t_mu;
  match st with
  | Done v -> v
  | Raised e -> raise e
  | Pending -> assert false

(* [Condition] has no timed wait in the stdlib, so the deadline path
   polls: check, sleep half a millisecond, re-check.  The watchdog
   deadlines this serves are milliseconds — a 0.5 ms poll quantum is
   noise there, and the slow path only runs when a shard has already
   stalled. *)
let await_timeout ticket ~timeout_s =
  let deadline = Secpol_obs.Clock.now () +. timeout_s in
  let rec wait () =
    Mutex.lock ticket.t_mu;
    let st = ticket.state in
    Mutex.unlock ticket.t_mu;
    match st with
    | Done v -> Some (Ok v)
    | Raised e -> Some (Error e)
    | Pending ->
        if Secpol_obs.Clock.now () >= deadline then None
        else begin
          (try Unix.sleepf 0.0005 with Unix.Unix_error _ -> ());
          wait ()
        end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Workers and rings                                                   *)
(* ------------------------------------------------------------------ *)

type worker = {
  shard : int;
  mutable engine : Engine.t;
  mutable registry : Registry.t; (* instruments of the current engine *)
  retired : Registry.t; (* accumulated telemetry of pre-swap engines *)
  mutable retired_stats : Engine.stats;
  mutable epoch_seen : int;
}

type job = worker -> unit

(* An SPSC ring per shard: one consumer (the pinned worker domain), many
   producers (client connection threads) serialised by the producer
   mutex.  Head and tail are atomics so the consumer's fast path never
   takes the lock; the condvar only parks an idle consumer. *)
type ring = {
  slots : job option array; (* length is a power of two *)
  mask : int;
  head : int Atomic.t; (* next slot to consume *)
  tail : int Atomic.t; (* next slot to fill *)
  mu : Mutex.t;
  cv : Condition.t;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let ring_create capacity =
  let capacity = next_pow2 (max capacity 1) 1 in
  {
    slots = Array.make capacity None;
    mask = capacity - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
  }

(* Returns false when the ring is full or the pool is stopping —
   admission control is the caller's problem (the daemon retries then
   sheds, per the gateway discipline), not the ring's.  [stop] is read
   under [mu] so that a worker re-checking emptiness under [mu] before
   it exits cannot miss a job admitted concurrently. *)
let ring_push ring ~stop job =
  Mutex.lock ring.mu;
  let tail = Atomic.get ring.tail in
  if Atomic.get stop || tail - Atomic.get ring.head >= Array.length ring.slots
  then begin
    Mutex.unlock ring.mu;
    false
  end
  else begin
    ring.slots.(tail land ring.mask) <- Some job;
    Atomic.set ring.tail (tail + 1);
    Condition.signal ring.cv;
    Mutex.unlock ring.mu;
    true
  end

(* Consumer side: spin briefly (a loaded ring almost always has the next
   job visible within a few relaxed reads), then park on the condvar.
   Jobs already admitted are always drained, even after [stop] — the
   zero-dropped guarantee extends through shutdown. *)
let ring_pop ring ~stop =
  let take head =
    let slot = head land ring.mask in
    let job = ring.slots.(slot) in
    ring.slots.(slot) <- None;
    Atomic.set ring.head (head + 1);
    job
  in
  let rec go spins =
    let head = Atomic.get ring.head in
    if Atomic.get ring.tail > head then take head
    else if Atomic.get stop then begin
      (* exit only if the ring is still empty under the producers' lock:
         past this point [ring_push] refuses *)
      Mutex.lock ring.mu;
      let empty = Atomic.get ring.tail = Atomic.get ring.head in
      Mutex.unlock ring.mu;
      if empty then None else go spins
    end
    else if spins > 0 then begin
      Domain.cpu_relax ();
      go (spins - 1)
    end
    else begin
      Mutex.lock ring.mu;
      if Atomic.get ring.tail = Atomic.get ring.head && not (Atomic.get stop)
      then Condition.wait ring.cv ring.mu;
      Mutex.unlock ring.mu;
      go 64
    end
  in
  go 64

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  current : generation Atomic.t;
  mutable workers : worker array;
  rings : ring array;
  mutable handles : unit Domain.t array;
  stop : bool Atomic.t;
  mutable joined : bool;
}

let make_engine registry gen = Engine.of_table ~obs:registry gen.table gen.db

(* Job-boundary epoch check: requests of a batch already being decided
   finish against the generation they started on (a coherent answer),
   and the very next job observes the new table.  Telemetry of the
   outgoing engine is folded into the worker's retired registry so a
   swap never zeroes the shard's cumulative counters. *)
let refresh pool w =
  let gen = Atomic.get pool.current in
  if gen.epoch <> w.epoch_seen then begin
    Registry.merge_into ~into:w.retired w.registry;
    w.retired_stats <- Engine.add_stats w.retired_stats (Engine.stats w.engine);
    let registry = Registry.create () in
    w.registry <- registry;
    w.engine <- make_engine registry gen;
    w.epoch_seen <- gen.epoch
  end

let worker_loop pool w ring ready =
  Atomic.incr ready;
  let rec loop () =
    match ring_pop ring ~stop:pool.stop with
    | None -> ()
    | Some job ->
        refresh pool w;
        job w;
        loop ()
  in
  loop ()

let create ?(queue_capacity = 1024) ~domains table db =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  let gen = { epoch = 1; table; db } in
  let pool =
    {
      current = Atomic.make gen;
      workers = [||];
      rings = Array.init domains (fun _ -> ring_create queue_capacity);
      handles = [||];
      stop = Atomic.make false;
      joined = false;
    }
  in
  let workers =
    Array.init domains (fun shard ->
        let registry = Registry.create () in
        {
          shard;
          engine = make_engine registry gen;
          registry;
          retired = Registry.create ();
          retired_stats = Engine.zero_stats;
          epoch_seen = gen.epoch;
        })
  in
  pool.workers <- workers;
  let ready = Atomic.make 0 in
  pool.handles <-
    Array.init domains (fun shard ->
        Domain.spawn (fun () ->
            worker_loop pool workers.(shard) pool.rings.(shard) ready));
  (* Readiness barrier: return only once every worker is in its serve
     loop, so callers never bill domain startup to the first requests. *)
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  pool

let domains pool = Array.length pool.workers

let epoch pool = (Atomic.get pool.current).epoch

let table pool = (Atomic.get pool.current).table

let db pool = (Atomic.get pool.current).db

let rec swap pool new_table new_db =
  let gen = Atomic.get pool.current in
  let next = { epoch = gen.epoch + 1; table = new_table; db = new_db } in
  if Atomic.compare_and_set pool.current gen next then next.epoch
  else swap pool new_table new_db

let try_submit pool ~shard f =
  if shard < 0 || shard >= Array.length pool.rings then
    invalid_arg "Pool.try_submit: shard out of range";
  let t = ticket () in
  let job w = resolve t (try Done (f w) with e -> Raised e) in
  if ring_push pool.rings.(shard) ~stop:pool.stop job then Some t else None

let worker_shard w = w.shard

let worker_engine w = w.engine

let worker_epoch w = w.epoch_seen

let worker_snapshot w =
  let registry = Registry.create () in
  Registry.merge_into ~into:registry w.retired;
  Registry.merge_into ~into:registry w.registry;
  (Engine.add_stats w.retired_stats (Engine.stats w.engine), registry)

let shutdown pool =
  if not pool.joined then begin
    pool.joined <- true;
    Atomic.set pool.stop true;
    Array.iter
      (fun ring ->
        Mutex.lock ring.mu;
        Condition.broadcast ring.cv;
        Mutex.unlock ring.mu)
      pool.rings;
    Array.iter Domain.join pool.handles
  end
