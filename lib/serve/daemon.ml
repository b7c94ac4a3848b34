module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
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
}

let default_config =
  {
    socket_path = "secpold.sock";
    tcp_port = None;
    domains = 1;
    strategy = Engine.Deny_overrides;
    queue_capacity = 1024;
    watchdog_deadline_s = 1.0;
  }

type t = {
  config : config;
  pool : Pool.t;
  registry : Registry.t;
  started_at : float;
  stop : bool Atomic.t;
  reload_mu : Mutex.t; (* serialises compile + gate + swap *)
  mu : Mutex.t; (* guards the accept role, [servers] and [conns] *)
  role_free : Condition.t; (* the accept role was given up, or [stop] set *)
  mutable leader : bool;
      (* a server thread holds the accept role or was started to take it *)
  mutable waiting : int; (* server threads waiting for the role *)
  mutable servers : Thread.t list; (* the live server threads *)
  mutable conns : Unix.file_descr list; (* the open connections *)
  listeners : Unix.file_descr list;
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
  c_threads_started : Obs.Counter.t;
  c_thread_errors : Obs.Counter.t;
}

(* ------------------------------------------------------------------ *)
(* Deciding                                                            *)
(* ------------------------------------------------------------------ *)

(* Each distinct subject's shard is computed once, on the connection
   thread; each shard's worker fills its own arena with that shard's
   rows and decides them. *)
let handle_decide t id (reqs : Wire.interned) =
  let n = Wire.length reqs in
  let now = Clock.now () -. t.started_at in
  let subject_shard =
    Array.map
      (Partition.shard_of_string ~shards:(Pool.domains t.pool))
      reqs.Wire.subjects
  in
  let d =
    Pool.decide t.pool ~n
      ~shard_of_row:(fun i -> subject_shard.(reqs.Wire.subject_ix.(i)))
      ~fill:(fun ~shard arena ->
        Wire.fill reqs ~now ~subject_shard ~shard arena)
      ~deadline_s:t.config.watchdog_deadline_s
  in
  (* rows a shard answered nothing for, or too late, are fail-safe
     denies; the batch counts one watchdog trip however many shards were
     late *)
  let failsafe = d.stalled + d.late in
  Obs.Counter.add t.c_shed d.shed;
  Obs.Counter.add t.c_failsafe failsafe;
  if d.late > 0 then Obs.Counter.incr t.c_watchdog_trips;
  Obs.Counter.add t.c_requests n;
  Obs.Counter.incr t.c_batches;
  Wire.Decide_resp
    {
      id;
      degraded = failsafe > 0;
      shed = d.shed > 0;
      allows = Array.map (fun a -> a = Ast.Allow) d.answers;
    }

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
  (* merging leaves gauges out: sample the daemon's own into the view *)
  List.iter
    (fun (name, v) -> Registry.register_gauge merged name (fun () -> v))
    (Registry.gauges t.registry);
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

(* A session ends here: its fd leaves [conns] and only then is closed, so
   an fd [stop] finds in [conns] is open. *)
let drop_conn t fd =
  Mutex.lock t.mu;
  t.conns <- List.filter (fun c -> c <> fd) t.conns;
  Mutex.unlock t.mu;
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

(* Sessions are served leader/followers.  One server thread at a time
   holds the accept role: it accepts a connection, gives the role up and
   serves that connection itself, so no session is handed to another
   thread.  The role goes to a thread waiting for it, or to a thread
   started for it when none waits.  A thread whose session closes takes
   the role if it is free, waits for it unless two threads already wait,
   and exits otherwise: one waiter takes the role at the next accept, and
   the other covers the moment before the thread that just served gets
   back.  So sequential sessions start no thread, and a burst's threads
   leave once it ends. *)

(* A blocked [accept] is not reliably woken by closing the listener from
   another thread, so the leader polls readability with a short [select]
   timeout and re-checks the stop flag between polls — shutdown latency
   is bounded by the poll period, with no wake-up trickery. *)
let rec accept_one t =
  if Atomic.get t.stop then None
  else
    match Unix.select t.listeners [] [] 0.1 with
    | exception Unix.Unix_error (EINTR, _, _) -> accept_one t
    | [], _, _ -> accept_one t
    | listener :: _, _, _ -> (
        match Unix.accept listener with
        | exception Unix.Unix_error _ -> accept_one t
        | fd, _ -> Some fd)

(* Under [t.mu], which it releases: the calling thread takes itself off
   [servers], and its thread function returns next. *)
let leave t =
  let me = Thread.id (Thread.self ()) in
  t.servers <- List.filter (fun th -> Thread.id th <> me) t.servers;
  Mutex.unlock t.mu

(* Holding the accept role. *)
let rec lead t =
  match accept_one t with
  | None ->
      Mutex.lock t.mu;
      leave t
  | Some fd ->
      Mutex.lock t.mu;
      if Atomic.get t.stop then begin
        (* [stop] may have shut its connections down already *)
        leave t;
        close_quiet fd
      end
      else begin
        Obs.Counter.incr t.c_connections;
        t.conns <- fd :: t.conns;
        pass_role t;
        Mutex.unlock t.mu;
        connection_loop t fd;
        follow t
      end

(* Under [t.mu]: the leader gives the accept role to a waiting thread, or
   to one started for it.  If none can be started the role is left free
   and the first thread whose session closes takes it, the leader itself
   at the latest: every accepted connection is served, and accepting
   resumes. *)
and pass_role t =
  if t.waiting > 0 then begin
    t.leader <- false;
    Condition.signal t.role_free
  end
  else
    match Thread.create lead t with
    | th ->
        t.servers <- th :: t.servers;
        Obs.Counter.incr t.c_threads_started
    | exception (Sys_error _ | Out_of_memory) ->
        t.leader <- false;
        Obs.Counter.incr t.c_thread_errors

(* After a session: take the accept role when it is free, wait for it
   unless two threads already wait, or exit. *)
and follow t =
  Mutex.lock t.mu;
  if Atomic.get t.stop || (t.leader && t.waiting >= 2) then leave t
  else begin
    t.waiting <- t.waiting + 1;
    while t.leader && not (Atomic.get t.stop) do
      Condition.wait t.role_free t.mu
    done;
    t.waiting <- t.waiting - 1;
    if Atomic.get t.stop then leave t
    else begin
      t.leader <- true;
      Mutex.unlock t.mu;
      lead t
    end
  end

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
  let listeners =
    listen_unix config.socket_path
    :: (match config.tcp_port with
       | None -> []
       | Some port -> [ listen_tcp port ])
  in
  let t =
    {
      config;
      pool;
      registry;
      started_at = Clock.now ();
      stop = Atomic.make false;
      reload_mu = Mutex.create ();
      mu = Mutex.create ();
      role_free = Condition.create ();
      leader = true;
      waiting = 0;
      servers = [];
      conns = [];
      listeners;
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
      c_threads_started = counter "threads_started";
      c_thread_errors = counter "thread_errors";
    }
  in
  Registry.register_gauge registry "serve.threads" (fun () ->
      float_of_int (List.length t.servers));
  (* the first leader, listed before it can reach [leave] *)
  Mutex.protect t.mu (fun () ->
      t.servers <- [ Thread.create lead t ];
      Obs.Counter.incr t.c_threads_started);
  t

let epoch t = Pool.epoch t.pool

let wire_errors t = Obs.Counter.value t.c_wire_errors

let watchdog_trips t = Obs.Counter.value t.c_watchdog_trips

let shed t = Obs.Counter.value t.c_shed

let pool t = t.pool

let connections t = Mutex.protect t.mu (fun () -> List.length t.conns)

let threads t = Mutex.protect t.mu (fun () -> List.length t.servers)

let threads_started t = Obs.Counter.value t.c_threads_started

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* The leader notices the flag at its next poll, a waiting thread at
       the broadcast.  [shutdown] (not [close]) wakes a thread blocked in
       read with EOF; it then closes its own fd and exits, so no fd is
       ever closed under a thread still using it.  The flag is set under
       the lock, so no thread starts after this pass and a connection
       accepted after it is closed unserved; the threads that already
       exited are gone from the list and need no join. *)
    Mutex.lock t.mu;
    Atomic.set t.stop true;
    Condition.broadcast t.role_free;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.conns;
    let servers = t.servers in
    Mutex.unlock t.mu;
    List.iter Thread.join servers;
    List.iter close_quiet t.listeners;
    Pool.shutdown t.pool;
    try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()
  end
