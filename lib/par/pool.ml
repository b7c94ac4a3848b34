module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
module Batch = Secpol_policy.Batch
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Registry = Secpol_obs.Registry
module Clock = Secpol_obs.Clock

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
(* Tickets and the watchdog                                            *)
(* ------------------------------------------------------------------ *)

type 'a state = Pending | Done of 'a | Raised of exn

(* One timed wait: the awaited ticket's lock and condvar, its deadline,
   and the flag the watchdog raises under that lock once the deadline
   has passed. *)
type wait = {
  deadline : float;
  w_mu : Mutex.t;
  w_cv : Condition.t;
  mutable expired : bool;
}

(* The stdlib's [Condition] has no timed wait, so a timed waiter blocks
   on its ticket's condvar like any other, and one thread per pool keeps
   the deadlines: it holds every outstanding wait, naps until the
   earliest deadline but never longer than [max_nap_s] (a wait
   registered during the nap may fall due first), and wakes each waiter
   whose deadline has passed.  While no wait is outstanding it parks on
   its own condvar.  The worker that resolves a ticket wakes the ticket's
   waiters itself, so a decided job never waits on the watchdog. *)
type watchdog = {
  wd_mu : Mutex.t;
  wd_cv : Condition.t;
  mutable waits : wait list;
  mutable closing : bool;
}

let max_nap_s = 0.001

let expire w =
  Mutex.lock w.w_mu;
  w.expired <- true;
  Condition.broadcast w.w_cv;
  Mutex.unlock w.w_mu

let rec watch wd =
  Mutex.lock wd.wd_mu;
  while List.is_empty wd.waits && not wd.closing do
    Condition.wait wd.wd_cv wd.wd_mu
  done;
  if wd.closing then Mutex.unlock wd.wd_mu
  else begin
    let now = Clock.now () in
    let due, waits = List.partition (fun w -> w.deadline <= now) wd.waits in
    wd.waits <- waits;
    let next =
      List.fold_left (fun next w -> Float.min next w.deadline) infinity waits
    in
    Mutex.unlock wd.wd_mu;
    (* a ticket's lock is taken with the watchdog's released, and a
       waiter never holds both either, so the two cannot deadlock *)
    List.iter expire due;
    (if not (List.is_empty waits) then
       try Thread.delay (Float.min max_nap_s (next -. now))
       with Unix.Unix_error _ -> ());
    watch wd
  end

let watchdog () =
  {
    wd_mu = Mutex.create ();
    wd_cv = Condition.create ();
    waits = [];
    closing = false;
  }

(* The thread is parked only while the list is empty, and a non-empty
   list is rescanned within [max_nap_s]: only the first wait wakes it. *)
let register wd w =
  Mutex.lock wd.wd_mu;
  if List.is_empty wd.waits then Condition.signal wd.wd_cv;
  wd.waits <- w :: wd.waits;
  Mutex.unlock wd.wd_mu

let unregister wd w =
  Mutex.lock wd.wd_mu;
  wd.waits <- List.filter (fun w' -> w' != w) wd.waits;
  Mutex.unlock wd.wd_mu

let close_watchdog wd thread =
  Mutex.lock wd.wd_mu;
  wd.closing <- true;
  Condition.signal wd.wd_cv;
  Mutex.unlock wd.wd_mu;
  Thread.join thread

type 'a ticket = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable state : 'a state;
  t_wd : watchdog;
}

let ticket wd =
  {
    t_mu = Mutex.create ();
    t_cv = Condition.create ();
    state = Pending;
    t_wd = wd;
  }

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

let result = function
  | Done v -> Some (Ok v)
  | Raised e -> Some (Error e)
  | Pending -> None

(* A decided ticket answers at once.  Otherwise the wait is handed to
   the watchdog and the caller blocks on the ticket until the worker
   resolves it or the watchdog expires the wait, whichever comes first;
   nothing here sleeps. *)
let await_timeout ticket ~timeout_s =
  Mutex.lock ticket.t_mu;
  let st = ticket.state in
  Mutex.unlock ticket.t_mu;
  match st with
  | Done _ | Raised _ -> result st
  | Pending when not (timeout_s > 0.0) -> None
  | Pending ->
      let w =
        {
          deadline = Clock.now () +. timeout_s;
          w_mu = ticket.t_mu;
          w_cv = ticket.t_cv;
          expired = false;
        }
      in
      register ticket.t_wd w;
      Mutex.lock ticket.t_mu;
      let rec wait () =
        match ticket.state with
        | Pending when not w.expired ->
            Condition.wait ticket.t_cv ticket.t_mu;
            wait ()
        | st -> st
      in
      let st = wait () in
      Mutex.unlock ticket.t_mu;
      unregister ticket.t_wd w;
      result st

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
  mutable arena : Batch.t; (* the rows of this shard's current decide *)
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
   admission control is the caller's problem ([decide] retries then
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
  watchdog : watchdog;
  watcher : Thread.t; (* runs [watch watchdog] from create to shutdown *)
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
  let watchdog = watchdog () in
  let pool =
    {
      current = Atomic.make gen;
      workers = [||];
      rings = Array.init domains (fun _ -> ring_create queue_capacity);
      handles = [||];
      watchdog;
      watcher = Thread.create watch watchdog;
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
          arena = Batch.create ~capacity:1 ();
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
  let t = ticket pool.watchdog in
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

(* ------------------------------------------------------------------ *)
(* The sharded decide                                                  *)
(* ------------------------------------------------------------------ *)

type decided = {
  answers : Ast.decision array;
  stalled : int;
  late : int;
  shed : int;
}

(* Admission follows the gateway's retry-then-shed discipline: a full
   ring gets a few exponentially backed-off retries (the worker drains
   in microseconds when merely busy), then the shard's rows are shed
   instead of queueing the caller's memory without bound. *)
let admission_retries = 3

let retry_backoff_s = 0.0005

let admit pool ~shard job =
  let rec go attempt =
    match try_submit pool ~shard job with
    | Some _ as admitted -> admitted
    | None when attempt >= admission_retries -> None
    | None ->
        (try Unix.sleepf (retry_backoff_s *. float_of_int (1 lsl attempt))
         with Unix.Unix_error _ -> ());
        go (attempt + 1)
  in
  go 0

(* A worker keeps its arena from decide to decide, but not one that grew
   past this many rows, so one huge batch leaves no more memory behind. *)
let max_arena_rows = 4096

(* One shard's rows, filled and decided on the shard's worker under one
   epoch.  Only this worker ever touches its arena, and it runs one job
   at a time, so a job that missed its caller's deadline still owns the
   arena until it ends.  A stalled engine answers [None]. *)
let decide_job ~fill ~rows w =
  if Batch.capacity w.arena < rows then
    w.arena <- Batch.create ~capacity:rows ()
  else Batch.clear w.arena;
  let arena = w.arena in
  fill ~shard:w.shard arena;
  if Batch.length arena <> rows then
    invalid_arg "Pool.decide: fill pushed another number of rows";
  let out = Array.make rows Ast.Deny in
  let answered =
    match Engine.decide_batch w.engine arena ~out with
    | () -> Some out
    | exception Engine.Unavailable -> None
  in
  if Batch.capacity arena > max_arena_rows then
    w.arena <- Batch.create ~capacity:1 ();
  answered

let decide pool ~n ~shard_of_row ~fill ~deadline_s =
  let shards = Array.length pool.rings in
  let rows = Array.make shards 0 in
  for i = 0 to n - 1 do
    let k = shard_of_row i in
    rows.(k) <- rows.(k) + 1
  done;
  (* One deadline for the whole batch, taken as it is submitted: each
     wait blocks on its ticket until the worker that decides the shard
     wakes it, or until the watchdog does once the deadline has passed,
     so a healthy batch never sleeps and stalled shards cost the caller
     one deadline, not one each. *)
  let deadline = Clock.now () +. deadline_s in
  let shed = ref 0 in
  let tickets =
    Array.init shards (fun k ->
        if rows.(k) = 0 then None
        else
          match admit pool ~shard:k (decide_job ~fill ~rows:rows.(k)) with
          | Some _ as ticket -> ticket
          | None ->
              shed := !shed + rows.(k);
              None)
  in
  let outs = Array.make shards [||] in
  let stalled = ref 0 and late = ref 0 in
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some ticket -> (
          match await_timeout ticket ~timeout_s:(deadline -. Clock.now ()) with
          | Some (Ok (Some out)) -> outs.(k) <- out
          | Some (Ok None) | Some (Error _) -> stalled := !stalled + rows.(k)
          | None ->
              (* the late job's answers are never read *)
              late := !late + rows.(k)))
    tickets;
  (* A shard that answered every row answered them in input order, so a
     one-domain decide copies nothing: one more major-heap array per
     decide makes the collections, which stop the worker domains too,
     more frequent.  Otherwise each answering shard's decisions, in its
     rows' order, go back to input order; a shard that answered nothing
     leaves its rows denied. *)
  let answers =
    match Array.find_opt (fun out -> Array.length out = n) outs with
    | Some out -> out
    | None ->
        let answers = Array.make n Ast.Deny in
        let next = Array.make shards 0 in
        for i = 0 to n - 1 do
          let k = shard_of_row i in
          let out = outs.(k) in
          if Array.length out > 0 then begin
            answers.(i) <- out.(next.(k));
            next.(k) <- next.(k) + 1
          end
        done;
        answers
  in
  { answers; stalled = !stalled; late = !late; shed = !shed }

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
    Array.iter Domain.join pool.handles;
    (* every admitted job has run and resolved its ticket, so no timed
       wait can still need the watchdog *)
    close_watchdog pool.watchdog pool.watcher
  end
