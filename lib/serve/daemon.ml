module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
module Batch = Secpol_policy.Batch
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Compile = Secpol_policy.Compile
module Verify = Secpol_policy.Verify
module Json = Secpol_policy.Json
module Obs_json = Secpol_policy.Obs_json
module Pool = Secpol_par.Pool
module Partition = Secpol_par.Partition
module Obs = Secpol_obs
module Registry = Secpol_obs.Registry
module Clock = Secpol_obs.Clock

type config = {
  socket_path : string;
  tcp_port : int option;
  domains : int;
  strategy : Engine.strategy;
  queue_capacity : int;
  watchdog_deadline_s : float;
  admission_retries : int;
  retry_backoff_s : float;
}

let default_config =
  {
    socket_path = "secpold.sock";
    tcp_port = None;
    domains = 1;
    strategy = Engine.Deny_overrides;
    queue_capacity = 1024;
    watchdog_deadline_s = 1.0;
    admission_retries = 3;
    retry_backoff_s = 0.0005;
  }

type t = {
  config : config;
  pool : Pool.t;
  registry : Registry.t;
  started_at : float;
  stop : bool Atomic.t;
  reload_mu : Mutex.t; (* serialises compile + gate + swap *)
  idle_mu : Mutex.t;
  idle : Batch.t list array;
      (* per shard, the arenas no decide or worker holds: the next decide
         on that shard refills one instead of allocating its own *)
  conns_mu : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
      (* the open connections, each with the thread serving it *)
  mutable listeners : Unix.file_descr list;
  mutable accepters : Thread.t list;
  mutable stopped : bool;
  c_connections : Obs.Counter.t;
  c_requests : Obs.Counter.t;
  c_batches : Obs.Counter.t;
  c_shed : Obs.Counter.t;
  c_failsafe : Obs.Counter.t;
  c_watchdog_trips : Obs.Counter.t;
  c_wire_errors : Obs.Counter.t;
  c_reloads : Obs.Counter.t;
  c_reloads_refused : Obs.Counter.t;
}

(* ------------------------------------------------------------------ *)
(* Deciding                                                            *)
(* ------------------------------------------------------------------ *)

(* One shard's arena, decided in bulk on the shard's worker.  A stalled
   engine answers nothing — the caller turns that into fail-safe
   denies. *)
let decide_job batch (w : Pool.worker) =
  let out = Array.make (Batch.length batch) Ast.Deny in
  match Engine.decide_batch (Pool.worker_engine w) batch ~out with
  | () -> Ok out
  | exception Engine.Unavailable -> Error `Stalled

(* Admission follows the gateway's retry-then-shed discipline: a full
   ring gets a few exponentially backed-off retries (the worker drains
   in microseconds when merely busy), then the batch is shed — answered
   immediately with fail-safe denies — instead of queueing the daemon's
   memory without bound. *)
let submit_with_retry t ~shard job =
  let rec go attempt =
    match Pool.try_submit t.pool ~shard job with
    | Some ticket -> Some ticket
    | None ->
        if attempt >= t.config.admission_retries then None
        else begin
          (try
             Unix.sleepf
               (t.config.retry_backoff_s *. float_of_int (1 lsl min attempt 8))
           with Unix.Unix_error _ -> ());
          go (attempt + 1)
        end
  in
  go 0

(* Arenas are reused from decide to decide, across connections: a decide
   takes an idle arena for each shard it routes rows to, fills it on the
   connection thread, and gives it back once the shard's worker has
   answered.  An arena whose worker missed the deadline is never given
   back, since the worker may still read it.  At most [max_idle] arenas
   of at most [max_idle_rows] rows wait per shard, so neither a burst of
   concurrent decides nor one huge batch leaves more memory behind. *)
let max_idle = 4

let max_idle_rows = 4096

let take t shard rows =
  Mutex.lock t.idle_mu;
  let b =
    match t.idle.(shard) with
    | b :: rest ->
        t.idle.(shard) <- rest;
        Some b
    | [] -> None
  in
  Mutex.unlock t.idle_mu;
  match b with
  | Some b when Batch.capacity b >= rows ->
      Batch.clear b;
      b
  | Some _ | None -> Batch.create ~capacity:rows ()

let give_back t shard b =
  Mutex.lock t.idle_mu;
  if
    Batch.capacity b <= max_idle_rows
    && List.compare_length_with t.idle.(shard) max_idle < 0
  then
    t.idle.(shard) <- b :: t.idle.(shard);
  Mutex.unlock t.idle_mu

(* the arena of a shard no row routes to: never filled or decided *)
let no_rows = Batch.create ~capacity:1 ()

let handle_decide t id (reqs : Wire.interned) =
  let n = Wire.length reqs in
  let allows = Array.make n false in
  let degraded = ref false in
  let shed = ref false in
  if n > 0 then begin
    let now = Clock.now () -. t.started_at in
    let shards = Pool.domains t.pool in
    (* each distinct subject's shard, computed once *)
    let shard_of =
      Array.map (Partition.shard_of_string ~shards) reqs.Wire.subjects
    in
    let rows = Array.make shards 0 in
    Array.iter
      (fun s ->
        let k = shard_of.(s) in
        rows.(k) <- rows.(k) + 1)
      reqs.Wire.subject_ix;
    let arenas =
      Array.mapi (fun k r -> if r = 0 then no_rows else take t k r) rows
    in
    Wire.fill reqs ~now (Array.map (fun k -> arenas.(k)) shard_of);
    (* One deadline for the whole batch, taken as it is submitted: each
       wait blocks on its ticket until the worker that decides the slice
       wakes it, or until the pool's watchdog does once the deadline has
       passed, so a healthy batch never sleeps and stalled shards cost
       the client one deadline, not one each. *)
    let deadline = Clock.now () +. t.config.watchdog_deadline_s in
    let pending = ref [] in
    for k = 0 to shards - 1 do
      if rows.(k) > 0 then
        match submit_with_retry t ~shard:k (decide_job arenas.(k)) with
        | Some ticket -> pending := (k, ticket) :: !pending
        | None ->
            (* denied by default: [allows] already reads false *)
            shed := true;
            Obs.Counter.add t.c_shed rows.(k);
            give_back t k arenas.(k)
    done;
    (* each answering shard's decisions, in its rows' order *)
    let answers = Array.make shards [||] in
    let tripped = ref false in
    List.iter
      (fun (k, ticket) ->
        match
          Pool.await_timeout ticket ~timeout_s:(deadline -. Clock.now ())
        with
        | Some (Ok (Ok out)) ->
            answers.(k) <- out;
            give_back t k arenas.(k)
        | Some (Ok (Error `Stalled)) | Some (Error _) ->
            (* the shard answered "no answer": fail safe, deny its rows *)
            degraded := true;
            Obs.Counter.add t.c_failsafe rows.(k);
            give_back t k arenas.(k)
        | None ->
            (* the watchdog woke us: the shard missed the deadline —
               answer denies now rather than hang the client behind a
               wedged worker; the late result, if any, is discarded, and
               the worker keeps the arena *)
            degraded := true;
            tripped := true;
            Obs.Counter.add t.c_failsafe rows.(k))
      !pending;
    if !tripped then Obs.Counter.incr t.c_watchdog_trips;
    let next = Array.make shards 0 in
    for i = 0 to n - 1 do
      let k = shard_of.(reqs.Wire.subject_ix.(i)) in
      let out = answers.(k) in
      if Array.length out > 0 then begin
        allows.(i) <- out.(next.(k)) = Ast.Allow;
        next.(k) <- next.(k) + 1
      end
    done
  end;
  Obs.Counter.add t.c_requests n;
  Obs.Counter.incr t.c_batches;
  Wire.Decide_resp { id; degraded = !degraded; shed = !shed; allows }

(* ------------------------------------------------------------------ *)
(* Reload                                                              *)
(* ------------------------------------------------------------------ *)

let handle_reload t id ~allow_widen source =
  Mutex.lock t.reload_mu;
  let resp =
    match Compile.of_source source with
    | Error e ->
        Wire.Reload_resp
          {
            id;
            status = Wire.Rejected;
            widened = 0;
            tightened = 0;
            changed = 0;
            epoch = Pool.epoch t.pool;
            detail = e;
          }
    | Ok new_db ->
        let old_db = Pool.db t.pool in
        let g =
          Verify.gate (Verify.diff ~strategy:t.config.strategy old_db new_db)
        in
        let { Verify.widened; tightened; changed; _ } = g in
        match g.refusal with
        | Some why when not allow_widen ->
            Obs.Counter.incr t.c_reloads_refused;
            Wire.Reload_resp
              {
                id;
                status = Wire.Refused_widened;
                widened;
                tightened;
                changed;
                epoch = Pool.epoch t.pool;
                detail =
                  Printf.sprintf
                    "%s; %d decision region(s) widened in all; pass \
                     allow_widen to accept"
                    why widened;
              }
        | Some _ | None ->
            (* Compile off-path, publish atomically, and only then ack:
               any client that has seen this response can no longer
               observe a pre-swap decision. *)
            let table = Table.compile ~strategy:t.config.strategy new_db in
            let epoch = Pool.swap t.pool table new_db in
            Obs.Counter.incr t.c_reloads;
            Wire.Reload_resp
              {
                id;
                status = Wire.Swapped;
                widened;
                tightened;
                changed;
                epoch;
                detail =
                  Printf.sprintf "%s v%d" new_db.Ir.name new_db.Ir.version;
              }
  in
  Mutex.unlock t.reload_mu;
  resp

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let engine_stats_json (s : Engine.stats) =
  Json.Obj
    [
      ("decisions", Json.Int s.decisions);
      ("allows", Json.Int s.allows);
      ("denies", Json.Int s.denies);
    ]

let stats_json t =
  let domains = Pool.domains t.pool in
  let merged = Registry.create () in
  Registry.merge_into ~into:merged t.registry;
  let engine = ref Engine.zero_stats in
  let missing = ref 0 in
  (* Each shard snapshots itself as a job, so the snapshot reads
     quiesced worker state; a wedged shard times out and is reported
     missing instead of wedging the scrape. *)
  for shard = 0 to domains - 1 do
    match Pool.try_submit t.pool ~shard Pool.worker_snapshot with
    | None -> incr missing
    | Some ticket -> (
        match
          Pool.await_timeout ticket ~timeout_s:t.config.watchdog_deadline_s
        with
        | Some (Ok (stats, registry)) ->
            engine := Engine.add_stats !engine stats;
            Registry.merge_into ~into:merged registry
        | Some (Error _) | None -> incr missing)
  done;
  let db = Pool.db t.pool in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("service", Json.String "secpold");
      ("policy", Json.String db.Ir.name);
      ("policy_version", Json.Int db.Ir.version);
      ("epoch", Json.Int (Pool.epoch t.pool));
      ("domains", Json.Int domains);
      ("missing_shards", Json.Int !missing);
      ("uptime_s", Json.Float (Clock.now () -. t.started_at));
      ("connections", Json.Int (Obs.Counter.value t.c_connections));
      ("requests", Json.Int (Obs.Counter.value t.c_requests));
      ("batches", Json.Int (Obs.Counter.value t.c_batches));
      ("shed", Json.Int (Obs.Counter.value t.c_shed));
      ("failsafe", Json.Int (Obs.Counter.value t.c_failsafe));
      ("watchdog_trips", Json.Int (Obs.Counter.value t.c_watchdog_trips));
      ("wire_errors", Json.Int (Obs.Counter.value t.c_wire_errors));
      ("reloads", Json.Int (Obs.Counter.value t.c_reloads));
      ("reloads_refused", Json.Int (Obs.Counter.value t.c_reloads_refused));
      ("engine", engine_stats_json !engine);
      ("metrics", Obs_json.registry merged);
    ]

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A connection's thread ends here: it takes itself out of [conns] and
   only then closes its fd, so an fd [stop] finds in [conns] is open. *)
let drop_conn t fd =
  Mutex.lock t.conns_mu;
  t.conns <- List.filter (fun (c, _) -> c <> fd) t.conns;
  Mutex.unlock t.conns_mu;
  close_quiet fd

let handle_msg t = function
  | Wire.Decide_req { id; reqs } -> Some (handle_decide t id reqs)
  | Wire.Stats_req { id } ->
      Some (Wire.Stats_resp { id; body = Json.to_string (stats_json t) })
  | Wire.Reload_req { id; allow_widen; source } ->
      Some (handle_reload t id ~allow_widen source)
  | Wire.Decide_resp _ | Wire.Stats_resp _ | Wire.Reload_resp _
  | Wire.Error_resp _ ->
      (* a response type from a client is a protocol violation *)
      None

let connection_loop t fd =
  let rec loop () =
    match Wire.input_msg fd with
    | exception End_of_file -> drop_conn t fd
    | exception Wire.Malformed _ ->
        (* fail closed: count it, drop the connection, keep serving *)
        Obs.Counter.incr t.c_wire_errors;
        drop_conn t fd
    | exception Unix.Unix_error _ -> drop_conn t fd
    | msg -> (
        match handle_msg t msg with
        | None ->
            Obs.Counter.incr t.c_wire_errors;
            drop_conn t fd
        | Some resp -> (
            match Wire.output_msg fd resp with
            | () -> loop ()
            | exception (Unix.Unix_error _ | Sys_error _) -> drop_conn t fd))
  in
  loop ()

(* A blocked [accept] is not reliably woken by closing the listener from
   another thread, so the loop polls readability with a short [select]
   timeout and re-checks the stop flag between polls — shutdown latency
   is bounded by the poll period, with no wake-up trickery. *)
let accept_loop t listener =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select [ listener ] [] [] 0.1 with
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
          (match Unix.accept listener with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              Obs.Counter.incr t.c_connections;
              (* the thread is listed before it can reach [drop_conn],
                 which waits for this lock *)
              Mutex.protect t.conns_mu (fun () ->
                  let th = Thread.create (fun () -> connection_loop t fd) () in
                  t.conns <- (fd, th) :: t.conns));
          loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let start ?(config = default_config) db =
  if config.domains < 1 then invalid_arg "Daemon.start: domains < 1";
  let table = Table.compile ~strategy:config.strategy db in
  let pool =
    Pool.create ~queue_capacity:config.queue_capacity ~domains:config.domains
      table db
  in
  let registry = Registry.create () in
  let counter name =
    let c = Obs.Counter.create () in
    Registry.register_counter registry ("serve." ^ name) c;
    c
  in
  let t =
    {
      config;
      pool;
      registry;
      started_at = Clock.now ();
      stop = Atomic.make false;
      reload_mu = Mutex.create ();
      idle_mu = Mutex.create ();
      idle = Array.make config.domains [];
      conns_mu = Mutex.create ();
      conns = [];
      listeners = [];
      accepters = [];
      stopped = false;
      c_connections = counter "connections";
      c_requests = counter "requests";
      c_batches = counter "batches";
      c_shed = counter "shed";
      c_failsafe = counter "failsafe";
      c_watchdog_trips = counter "watchdog_trips";
      c_wire_errors = counter "wire_errors";
      c_reloads = counter "reloads";
      c_reloads_refused = counter "reloads_refused";
    }
  in
  let listeners =
    listen_unix config.socket_path
    :: (match config.tcp_port with
       | None -> []
       | Some port -> [ listen_tcp port ])
  in
  t.listeners <- listeners;
  t.accepters <-
    List.map (fun l -> Thread.create (fun () -> accept_loop t l) ()) listeners;
  t

let epoch t = Pool.epoch t.pool

let wire_errors t = Obs.Counter.value t.c_wire_errors

let watchdog_trips t = Obs.Counter.value t.c_watchdog_trips

let shed t = Obs.Counter.value t.c_shed

let pool t = t.pool

let connections t =
  Mutex.lock t.conns_mu;
  let n = List.length t.conns in
  Mutex.unlock t.conns_mu;
  n

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop true;
    (* accept loops notice the flag at their next poll *)
    List.iter Thread.join t.accepters;
    List.iter close_quiet t.listeners;
    (* [shutdown] (not [close]) wakes a connection thread blocked in
       read with EOF; each thread then closes its own fd and exits, so
       no fd is ever closed under a thread still using it.  Under the
       lock every listed fd is still open; the threads of connections
       that already ended are gone from the list and need no join. *)
    Mutex.lock t.conns_mu;
    let conns = t.conns in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.conns_mu;
    List.iter (fun (_, th) -> Thread.join th) conns;
    Pool.shutdown t.pool;
    try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()
  end
