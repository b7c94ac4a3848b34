(* Tests for the serving stack: the wire codec (round-trip property and
   adversarial framing), the persistent domain pool (submission, hot
   swap, backpressure, watchdog timeout, shutdown draining) and the
   daemon end-to-end over a real Unix socket — including the headline
   guarantee: a hot policy swap under concurrent load drops nothing and
   serves no stale decision after the ack. *)

module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Compile = Secpol_policy.Compile
module Json = Secpol_policy.Json
module Pool = Secpol_par.Pool
module Wire = Secpol_serve.Wire
module Daemon = Secpol_serve.Daemon
module Client = Secpol_serve.Client

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let compile_ok source =
  match Compile.of_source source with
  | Ok db -> db
  | Error e -> Alcotest.failf "compile failed: %s" e

(* Old policy: sensors may read telemetry; engine is covered only by the
   default deny.  New policy widens: sensors may also read engine. *)
let old_source =
  {|
policy "swap_test" version 1 {
  default deny;
  mode normal {
    asset telemetry {
      allow read from sensors, gateway;
    }
  }
}
|}

let new_source =
  {|
policy "swap_test" version 2 {
  default deny;
  mode normal {
    asset telemetry {
      allow read from sensors, gateway;
    }
    asset engine {
      allow read from sensors;
    }
  }
}
|}

let tightened_source =
  {|
policy "swap_test" version 3 {
  default deny;
  mode normal {
    asset telemetry {
      allow read from sensors;
    }
  }
}
|}

let req ?msg_id ?(mode = "normal") ?(op = Ir.Read) subject asset =
  { Ir.mode; subject; asset; op; msg_id }

let probe () = req "sensors" "engine"

(* ------------------------------------------------------------------ *)
(* Wire codec: round-trip property                                     *)
(* ------------------------------------------------------------------ *)

let string_gen = QCheck.Gen.(string_size (0 -- 12))

let req_gen =
  QCheck.Gen.(
    let* mode = string_gen in
    let* subject = string_gen in
    let* asset = string_gen in
    let* op = oneofl [ Ir.Read; Ir.Write ] in
    let* msg_id =
      oneof [ return None; map (fun m -> Some m) (0 -- 0x1FFFFFFF) ]
    in
    return { Ir.mode; subject; asset; op; msg_id })

(* Sizes from the issue list: empty, singleton, odd, and a large-ish
   batch; the full 65535 maximum gets its own unit test below. *)
let batch_size_gen = QCheck.Gen.oneofl [ 0; 1; 3; 7; 65 ]

let msg_gen =
  QCheck.Gen.(
    let* id = 0 -- 0xFFFFFF in
    oneof
      [
        (let* n = batch_size_gen in
         let* reqs = array_size (return n) req_gen in
         return (Wire.Decide_req { id; reqs }));
        (let* n = batch_size_gen in
         let* allows = array_size (return n) bool in
         let* degraded = bool in
         let* shed = bool in
         return (Wire.Decide_resp { id; degraded; shed; allows }));
        return (Wire.Stats_req { id });
        (let* body = string_size (0 -- 200) in
         return (Wire.Stats_resp { id; body }));
        (let* allow_widen = bool in
         let* source = string_size (0 -- 200) in
         return (Wire.Reload_req { id; allow_widen; source }));
        (let* status =
           oneofl [ Wire.Swapped; Wire.Refused_widened; Wire.Rejected ]
         in
         let* widened = 0 -- 1000 in
         let* tightened = 0 -- 1000 in
         let* changed = 0 -- 1000 in
         let* epoch = 1 -- 10000 in
         let* detail = string_gen in
         return
           (Wire.Reload_resp
              { id; status; widened; tightened; changed; epoch; detail }));
        (let* message = string_gen in
         return (Wire.Error_resp { id; message }));
      ])

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"decode (encode msg) = msg" ~count:500
    (QCheck.make msg_gen) (fun msg ->
      Wire.equal msg (Wire.decode_payload (Wire.encode_payload msg)))

let test_wire_max_batch () =
  let reqs =
    Array.init Wire.max_batch (fun i ->
        req ~msg_id:(i land 0xFF) (Printf.sprintf "s%d" (i land 7)) "a")
  in
  let msg = Wire.Decide_req { id = 42; reqs } in
  check Alcotest.bool "max batch round trips" true
    (Wire.equal msg (Wire.decode_payload (Wire.encode_payload msg)));
  let over = Wire.Decide_req { id = 1; reqs = Array.make (Wire.max_batch + 1) (probe ()) } in
  (match Wire.encode_payload over with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "oversized batch encoded")

(* ------------------------------------------------------------------ *)
(* Wire codec: adversarial decoding                                    *)
(* ------------------------------------------------------------------ *)

let expect_malformed what payload =
  match Wire.decode_payload payload with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.failf "%s decoded" what

let test_wire_truncations () =
  let payload =
    Wire.encode_payload
      (Wire.Decide_req { id = 7; reqs = [| probe (); req "a" "b" |] })
  in
  (* every strict prefix must fail closed *)
  for len = 0 to String.length payload - 1 do
    expect_malformed
      (Printf.sprintf "prefix of %d bytes" len)
      (String.sub payload 0 len)
  done

let test_wire_garbage () =
  expect_malformed "empty payload" "";
  expect_malformed "unknown type tag" "\xff\x00\x00\x00\x00";
  expect_malformed "unknown op tag"
    (let good =
       Wire.encode_payload (Wire.Decide_req { id = 0; reqs = [| probe () |] })
     in
     (* the op byte sits 4 bytes before the trailing i32 msg-id column *)
     let b = Bytes.of_string good in
     Bytes.set b (Bytes.length b - 5) '\xee';
     Bytes.to_string b);
  expect_malformed "trailing garbage"
    (Wire.encode_payload (Wire.Stats_req { id = 3 }) ^ "x");
  expect_malformed "garbage bytes" (String.make 64 '\xAA')

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_of ?queue_capacity ?(domains = 2) source =
  let db = compile_ok source in
  let table = Table.compile ~strategy:Engine.Deny_overrides db in
  Pool.create ?queue_capacity ~domains table db

let pool_decide pool ~shard r =
  match
    Pool.try_submit pool ~shard (fun w ->
        (Engine.decide (Pool.worker_engine w) r).Engine.decision)
  with
  | None -> Alcotest.fail "submit refused on an idle pool"
  | Some ticket -> Pool.await ticket

let test_pool_decides () =
  let pool = pool_of old_source in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      check Alcotest.int "epoch 1" 1 (Pool.epoch pool);
      check Alcotest.bool "telemetry allowed" true
        (pool_decide pool ~shard:0 (req "sensors" "telemetry") = Ast.Allow);
      check Alcotest.bool "engine denied" true
        (pool_decide pool ~shard:1 (probe ()) = Ast.Deny))

let test_pool_swap_epoch () =
  let pool = pool_of old_source in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let new_db = compile_ok new_source in
      let table = Table.compile ~strategy:Engine.Deny_overrides new_db in
      check Alcotest.bool "pre-swap deny" true
        (pool_decide pool ~shard:0 (probe ()) = Ast.Deny);
      let epoch = Pool.swap pool table new_db in
      check Alcotest.int "epoch bumped" 2 epoch;
      (* the very next job must see the new generation on every shard *)
      check Alcotest.bool "post-swap allow shard 0" true
        (pool_decide pool ~shard:0 (probe ()) = Ast.Allow);
      check Alcotest.bool "post-swap allow shard 1" true
        (pool_decide pool ~shard:1 (probe ()) = Ast.Allow);
      (match
         Pool.try_submit pool ~shard:0 (fun w -> Pool.worker_epoch w)
       with
      | None -> Alcotest.fail "submit refused"
      | Some t -> check Alcotest.int "worker rebound" 2 (Pool.await t)))

let test_pool_swap_keeps_counters () =
  let pool = pool_of ~domains:1 old_source in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      ignore (pool_decide pool ~shard:0 (req "sensors" "telemetry"));
      ignore (pool_decide pool ~shard:0 (probe ()));
      let new_db = compile_ok new_source in
      let table = Table.compile ~strategy:Engine.Deny_overrides new_db in
      ignore (Pool.swap pool table new_db);
      ignore (pool_decide pool ~shard:0 (probe ()));
      match Pool.try_submit pool ~shard:0 Pool.worker_snapshot with
      | None -> Alcotest.fail "submit refused"
      | Some t ->
          let stats, _registry = Pool.await t in
          (* 2 pre-swap + 1 post-swap: the swap must not zero telemetry *)
          check Alcotest.int "decisions survive swap" 3 stats.Engine.decisions;
          check Alcotest.int "allows survive swap" 2 stats.Engine.allows)

let test_pool_backpressure () =
  let pool = pool_of ~domains:1 ~queue_capacity:2 old_source in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* wedge the worker, then overfill the two-slot ring *)
      let gate = Atomic.make false in
      let blocker =
        Pool.try_submit pool ~shard:0 (fun _ ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.001
            done)
      in
      check Alcotest.bool "blocker admitted" true (blocker <> None);
      (* the worker may or may not have dequeued the blocker yet; admit
         until the ring reports full, bounded well above its depth *)
      let refused = ref false in
      let admitted = ref [] in
      let attempts = ref 0 in
      while (not !refused) && !attempts < 16 do
        incr attempts;
        match Pool.try_submit pool ~shard:0 (fun _ -> ()) with
        | Some t -> admitted := t :: !admitted
        | None -> refused := true
      done;
      check Alcotest.bool "full ring refuses admission" true !refused;
      check Alcotest.bool "ring depth respected" true (!attempts <= 4);
      Atomic.set gate true;
      (* everything that was admitted still completes: nothing dropped *)
      Option.iter Pool.await blocker;
      List.iter Pool.await !admitted)

let test_pool_await_timeout () =
  let pool = pool_of ~domains:1 old_source in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let gate = Atomic.make false in
      match
        Pool.try_submit pool ~shard:0 (fun _ ->
            while not (Atomic.get gate) do
              Unix.sleepf 0.001
            done;
            "done")
      with
      | None -> Alcotest.fail "submit refused"
      | Some ticket ->
          (match Pool.await_timeout ticket ~timeout_s:0.02 with
          | None -> ()
          | Some _ -> Alcotest.fail "timed await beat a blocked worker");
          Atomic.set gate true;
          (* a later await still collects the (late) result *)
          check Alcotest.string "late result" "done" (Pool.await ticket))

let test_pool_shutdown_drains () =
  let pool = pool_of ~domains:1 old_source in
  let seen = Atomic.make 0 in
  let tickets =
    List.init 8 (fun _ ->
        match
          Pool.try_submit pool ~shard:0 (fun _ -> Atomic.incr seen)
        with
        | Some t -> t
        | None -> Alcotest.fail "submit refused")
  in
  Pool.shutdown pool;
  check Alcotest.int "admitted jobs ran" 8 (Atomic.get seen);
  List.iter Pool.await tickets;
  (* post-shutdown submission is refused, not crashed *)
  check Alcotest.bool "post-shutdown refused" true
    (Pool.try_submit pool ~shard:0 (fun _ -> ()) = None);
  (* idempotent *)
  Pool.shutdown pool

(* [try_submit] racing [shutdown] from another domain: a job admitted
   while the pool stops must still run.  Each round is a fresh pool whose
   producer domain submits until refused; the main domain shuts the pool
   down as soon as the first job is in. *)
let test_pool_admission_races_shutdown () =
  let db = compile_ok old_source in
  let table = Table.compile ~strategy:Engine.Deny_overrides db in
  let admitted_total = ref 0 and stranded = ref 0 in
  for _ = 1 to 1000 do
    let pool = Pool.create ~domains:1 table db in
    let admitted = Atomic.make 0 in
    let producer =
      Domain.spawn (fun () ->
          let rec go acc =
            match Pool.try_submit pool ~shard:0 (fun _ -> ()) with
            | Some t ->
                Atomic.incr admitted;
                go (t :: acc)
            | None -> acc
          in
          go [])
    in
    while Atomic.get admitted = 0 do
      Domain.cpu_relax ()
    done;
    Pool.shutdown pool;
    let tickets = Domain.join producer in
    admitted_total := !admitted_total + List.length tickets;
    List.iter
      (fun t ->
        match Pool.await_timeout t ~timeout_s:0.05 with
        | Some (Ok ()) -> ()
        | Some (Error _) | None -> incr stranded)
      tickets
  done;
  check Alcotest.int
    (Printf.sprintf "admitted jobs never run (of %d admitted)" !admitted_total)
    0 !stranded

(* ------------------------------------------------------------------ *)
(* Daemon over a real socket                                           *)
(* ------------------------------------------------------------------ *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "secpold-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let with_daemon ?(domains = 2) ?(config = Daemon.default_config) source f =
  let socket_path = fresh_socket () in
  let config = { config with Daemon.socket_path; domains } in
  let daemon = Daemon.start ~config (compile_ok source) in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) (fun () -> f daemon socket_path)

let with_client socket_path f =
  let client = Client.connect socket_path in
  Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let test_daemon_decide_parity () =
  with_daemon old_source (fun _ socket_path ->
      with_client socket_path (fun client ->
          let subjects = [| "sensors"; "gateway"; "ecu"; "telematics" |] in
          let assets = [| "telemetry"; "engine"; "other" |] in
          let reqs =
            Array.init 64 (fun i ->
                req
                  ?msg_id:(if i mod 3 = 0 then Some i else None)
                  ~op:(if i mod 2 = 0 then Ir.Read else Ir.Write)
                  subjects.(i mod Array.length subjects)
                  assets.(i mod Array.length assets))
          in
          let b = Client.decide client reqs in
          check Alcotest.bool "not degraded" false b.Client.degraded;
          check Alcotest.bool "not shed" false b.Client.shed;
          let engine = Engine.create (compile_ok old_source) in
          Array.iteri
            (fun i r ->
              check Alcotest.bool
                (Printf.sprintf "request %d parity" i)
                ((Engine.decide engine r).Engine.decision = Ast.Allow)
                b.Client.allows.(i))
            reqs))

let test_daemon_empty_batch () =
  with_daemon old_source (fun _ socket_path ->
      with_client socket_path (fun client ->
          let b = Client.decide client [||] in
          check Alcotest.int "empty answer" 0 (Array.length b.Client.allows)))

let test_daemon_reload_gate () =
  with_daemon old_source (fun daemon socket_path ->
      with_client socket_path (fun client ->
          check Alcotest.bool "pre-swap deny" false
            (Client.decide_one client (probe ()));
          (* widening without the override: refused, nothing changes *)
          let r = Client.reload client new_source in
          check Alcotest.bool "refused" true
            (r.Client.status = Wire.Refused_widened);
          check Alcotest.int "widened count" 1 r.Client.widened;
          check Alcotest.int "epoch unchanged" 1 (Daemon.epoch daemon);
          check Alcotest.bool "still denied" false
            (Client.decide_one client (probe ()));
          (* with the override: swapped and immediately visible *)
          let r = Client.reload client ~allow_widen:true new_source in
          check Alcotest.bool "swapped" true (r.Client.status = Wire.Swapped);
          check Alcotest.int "epoch 2" 2 r.Client.epoch;
          check Alcotest.bool "post-swap allow" true
            (Client.decide_one client (probe ()));
          (* a pure tightening needs no override *)
          let r = Client.reload client tightened_source in
          check Alcotest.bool "tightening swaps" true
            (r.Client.status = Wire.Swapped);
          check Alcotest.int "no widening" 0 r.Client.widened;
          check Alcotest.bool "tightened epoch" true (r.Client.epoch = 3)))

let test_daemon_reload_rejects_garbage () =
  with_daemon old_source (fun daemon socket_path ->
      with_client socket_path (fun client ->
          let r = Client.reload client "policy \"broken\" {" in
          check Alcotest.bool "rejected" true (r.Client.status = Wire.Rejected);
          check Alcotest.int "epoch unchanged" 1 (Daemon.epoch daemon);
          check Alcotest.bool "still serving" true
            (Client.decide_one client (req "sensors" "telemetry"))))

(* The headline test: hammer the socket from several threads while the
   policy is swapped underneath.  Nothing may error or be dropped, each
   thread's probe answer must change monotonically deny -> allow (at
   most one flip), and after the reload ack a fresh connection must see
   only the new policy. *)
let test_daemon_swap_under_load () =
  with_daemon ~domains:4 old_source (fun _ socket_path ->
      let threads = 4 in
      let deadline = Unix.gettimeofday () +. 1.2 in
      let errors = Atomic.make 0 in
      let dropped = Atomic.make 0 in
      let flips = Array.make threads 0 in
      let first = Array.make threads None in
      let last = Array.make threads None in
      let reqs = Array.make 8 (probe ()) in
      let worker i =
        with_client socket_path (fun client ->
            while Unix.gettimeofday () < deadline do
              match Client.decide client reqs with
              | exception _ -> Atomic.incr errors
              | b ->
                  if b.Client.degraded || b.Client.shed then
                    Atomic.incr dropped
                  else begin
                    let v = b.Client.allows.(0) in
                    (match last.(i) with
                    | Some prev when prev <> v -> flips.(i) <- flips.(i) + 1
                    | _ -> ());
                    if first.(i) = None then first.(i) <- Some v;
                    last.(i) <- Some v
                  end
            done)
      in
      let handles =
        Array.init threads (fun i -> Thread.create (fun () -> worker i) ())
      in
      Thread.delay 0.3;
      let swap_epoch =
        with_client socket_path (fun client ->
            let r = Client.reload client ~allow_widen:true new_source in
            check Alcotest.bool "swapped mid-load" true
              (r.Client.status = Wire.Swapped);
            r.Client.epoch)
      in
      (* zero stale after the ack: a fresh connection immediately after
         the reload response must see the new policy *)
      check Alcotest.bool "post-ack decision is fresh" true
        (with_client socket_path (fun c -> Client.decide_one c (probe ())));
      check Alcotest.int "epoch bumped" 2 swap_epoch;
      Array.iter Thread.join handles;
      check Alcotest.int "zero transport errors" 0 (Atomic.get errors);
      check Alcotest.int "zero degraded/shed" 0 (Atomic.get dropped);
      for i = 0 to threads - 1 do
        check Alcotest.bool
          (Printf.sprintf "thread %d started on old policy" i)
          true
          (first.(i) = Some false);
        check Alcotest.bool
          (Printf.sprintf "thread %d ended on new policy" i)
          true
          (last.(i) = Some true);
        check Alcotest.bool
          (Printf.sprintf "thread %d monotone transition" i)
          true
          (flips.(i) <= 1)
      done)

(* a server-side close surfaces as EOF or, when the server discards
   unread bytes, as ECONNRESET — either way the connection is dead *)
let conn_dropped fd =
  let buf = Bytes.create 1 in
  match Unix.read fd buf 0 1 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> true

let test_daemon_survives_garbage () =
  with_daemon old_source (fun daemon socket_path ->
      let before = Daemon.wire_errors daemon in
      (* a raw connection spraying garbage: huge length prefix *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let junk = Bytes.create 8 in
      Bytes.set_int32_le junk 0 0x7FFFFFFFl;
      Bytes.fill junk 4 4 '\xAA';
      ignore (Unix.write fd junk 0 8);
      check Alcotest.bool "connection dropped" true (conn_dropped fd);
      Unix.close fd;
      (* undecodable body: valid small frame, unknown type tag *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let bad = Bytes.create 5 in
      Bytes.set_int32_le bad 0 1l;
      Bytes.set bad 4 '\xEE';
      ignore (Unix.write fd bad 0 5);
      check Alcotest.bool "second connection dropped" true (conn_dropped fd);
      Unix.close fd;
      (* truncated header: two bytes then close — not an error, just EOF *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      ignore (Unix.write fd (Bytes.make 2 'x') 0 2);
      Unix.close fd;
      check Alcotest.bool "wire errors counted" true
        (Daemon.wire_errors daemon >= before + 2);
      (* and the daemon lives: a well-formed client still gets answers *)
      with_client socket_path (fun client ->
          check Alcotest.bool "daemon alive" true
            (Client.decide_one client (req "sensors" "telemetry"))))

let test_daemon_failsafe_on_stall () =
  with_daemon ~domains:1 old_source (fun daemon socket_path ->
      let pool = Daemon.pool daemon in
      (match
         Pool.try_submit pool ~shard:0 (fun w ->
             Engine.set_stalled (Pool.worker_engine w) true)
       with
      | None -> Alcotest.fail "stall injection refused"
      | Some t -> Pool.await t);
      with_client socket_path (fun client ->
          let b =
            Client.decide client [| req "sensors" "telemetry"; probe () |]
          in
          check Alcotest.bool "degraded flagged" true b.Client.degraded;
          check Alcotest.bool "fail-safe deny" false b.Client.allows.(0);
          check Alcotest.bool "fail-safe deny 2" false b.Client.allows.(1));
      (* recovery: a reload rebinds the worker's engine, clearing the
         stall — the enforcement point comes back without a restart *)
      with_client socket_path (fun client ->
          let r = Client.reload client tightened_source in
          check Alcotest.bool "reload heals" true
            (r.Client.status = Wire.Swapped);
          let b = Client.decide client [| req "sensors" "telemetry" |] in
          check Alcotest.bool "recovered" false b.Client.degraded;
          check Alcotest.bool "answers again" true b.Client.allows.(0)))

let test_daemon_watchdog_timeout () =
  let config =
    { Daemon.default_config with watchdog_deadline_s = 0.05 }
  in
  with_daemon ~domains:1 ~config old_source (fun daemon socket_path ->
      let before = Daemon.watchdog_trips daemon in
      (* wedge the only worker so the decide below misses the deadline *)
      let gate = Atomic.make false in
      (match
         Pool.try_submit (Daemon.pool daemon) ~shard:0 (fun _ ->
             while not (Atomic.get gate) do
               Unix.sleepf 0.001
             done)
       with
      | None -> Alcotest.fail "wedge refused"
      | Some _ -> ());
      with_client socket_path (fun client ->
          let b = Client.decide client [| req "sensors" "telemetry" |] in
          check Alcotest.bool "watchdog degrades" true b.Client.degraded;
          check Alcotest.bool "watchdog denies" false b.Client.allows.(0));
      check Alcotest.bool "trip counted" true
        (Daemon.watchdog_trips daemon > before);
      Atomic.set gate true;
      (* the wedged worker drains and the shard serves again *)
      with_client socket_path (fun client ->
          let b = Client.decide client [| req "sensors" "telemetry" |] in
          check Alcotest.bool "re-armed" false b.Client.degraded;
          check Alcotest.bool "serves after re-arm" true b.Client.allows.(0)))

(* Admission shed fails closed: with the only worker wedged and its
   one-slot ring full, a batch of requests the policy allows is answered
   at once with denies and flagged as shed — never with an allow. *)
let test_daemon_shed_denies () =
  let config =
    { Daemon.default_config with queue_capacity = 1; admission_retries = 0 }
  in
  with_daemon ~domains:1 ~config old_source (fun daemon socket_path ->
      let pool = Daemon.pool daemon in
      let started = Atomic.make false in
      let gate = Atomic.make false in
      (match
         Pool.try_submit pool ~shard:0 (fun _ ->
             Atomic.set started true;
             while not (Atomic.get gate) do
               Unix.sleepf 0.001
             done)
       with
      | None -> Alcotest.fail "wedge refused"
      | Some _ -> ());
      Fun.protect
        ~finally:(fun () -> Atomic.set gate true)
        (fun () ->
          while not (Atomic.get started) do
            Unix.sleepf 0.001
          done;
          (* the worker is inside the wedge: fill its ring *)
          let attempts = ref 0 in
          while
            !attempts < 16
            && Pool.try_submit pool ~shard:0 (fun _ -> ()) <> None
          do
            incr attempts
          done;
          check Alcotest.bool "ring full" true
            (Pool.try_submit pool ~shard:0 (fun _ -> ()) = None);
          with_client socket_path (fun client ->
              let b =
                Client.decide client
                  (Array.make 8 (req "sensors" "telemetry"))
              in
              check Alcotest.bool "shed flagged" true b.Client.shed;
              check Alcotest.bool "every request denied" true
                (Array.for_all not b.Client.allows);
              check Alcotest.int "shed counted" 8 (Daemon.shed daemon))))

let test_daemon_stats_scrape () =
  with_daemon ~domains:2 old_source (fun _ socket_path ->
      with_client socket_path (fun client ->
          ignore (Client.decide client [| req "sensors" "telemetry"; probe () |]);
          let body = Client.stats client in
          match Json.of_string body with
          | Error e -> Alcotest.failf "stats not JSON: %s" e
          | Ok json ->
              let int_at field =
                match Json.member field json with
                | Some (Json.Int i) -> i
                | _ -> Alcotest.failf "missing %s" field
              in
              check Alcotest.int "epoch" 1 (int_at "epoch");
              check Alcotest.int "domains" 2 (int_at "domains");
              check Alcotest.int "requests" 2 (int_at "requests");
              check Alcotest.int "no shed" 0 (int_at "shed");
              check Alcotest.int "no trips" 0 (int_at "watchdog_trips");
              check Alcotest.int "no misses" 0 (int_at "missing_shards");
              (match Json.member "engine" json with
              | Some engine ->
                  check Alcotest.bool "engine decisions counted" true
                    (match Json.member "decisions" engine with
                    | Some (Json.Int n) -> n = 2
                    | _ -> false)
              | None -> Alcotest.fail "missing engine stats");
              check Alcotest.bool "metrics present" true
                (Json.member "metrics" json <> None)))

let () =
  Alcotest.run "secpol_serve"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          quick "max batch round trip" test_wire_max_batch;
          quick "truncations fail closed" test_wire_truncations;
          quick "garbage fails closed" test_wire_garbage;
        ] );
      ( "pool",
        [
          quick "decides on workers" test_pool_decides;
          quick "swap bumps epoch everywhere" test_pool_swap_epoch;
          quick "swap keeps counters" test_pool_swap_keeps_counters;
          quick "full ring refuses admission" test_pool_backpressure;
          quick "await timeout" test_pool_await_timeout;
          quick "shutdown drains" test_pool_shutdown_drains;
          quick "admission races shutdown" test_pool_admission_races_shutdown;
        ] );
      ( "daemon",
        [
          quick "decide parity over socket" test_daemon_decide_parity;
          quick "empty batch" test_daemon_empty_batch;
          quick "reload gate refuses widenings" test_daemon_reload_gate;
          quick "reload rejects garbage" test_daemon_reload_rejects_garbage;
          quick "hot swap under load" test_daemon_swap_under_load;
          quick "survives malformed frames" test_daemon_survives_garbage;
          quick "fail-safe denies on stall" test_daemon_failsafe_on_stall;
          quick "watchdog timeout" test_daemon_watchdog_timeout;
          quick "admission shed denies" test_daemon_shed_denies;
          quick "stats scrape" test_daemon_stats_scrape;
        ] );
    ]
