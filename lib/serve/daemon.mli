(** The [secpold] decision daemon: a long-running enforcement point.

    The paper's runtime-enforcement argument only holds if decisions are
    served {e continuously while policies change underneath} — the
    mitigation path for a fielded vulnerability is a policy update, not
    a recall.  The daemon therefore never stops answering:

    - decisions run on a persistent {!Secpol_par.Pool} — one pinned
      worker per shard, requests routed by subject so rate budgets stay
      shard-local;
    - a reload compiles the new policy {e off-path}, gates it with
      {!Secpol_policy.Verify.gate} over the diff against the live policy
      (no obligations; a widening is refused unless explicitly allowed,
      and the refusal names the first widened flow), then publishes it
      with one atomic pointer swap — zero dropped requests, and no
      decision made after the ack is stale;
    - a decide is one {!Secpol_par.Pool.decide}: each shard's worker
      fills its own reused arena with the shard's rows, each distinct
      name hashed once, straight from the wire's name tables, and
      decides it in bulk;
    - overload sheds at admission with fail-safe denies (the gateway's
      retry-then-shed discipline), and a per-batch watchdog answers
      denies when a shard misses the batch's deadline rather than
      hanging the client;
    - undecodable input is counted ([serve.wire_errors]) and the
      connection dropped — the daemon itself never dies from a frame.

    Transport is a Unix-domain socket, plus an optional loopback TCP
    port, with messages framed by {!Wire}.  Sessions are served
    leader/followers: the server thread that accepts a connection serves
    it, and the accept role passes to a thread waiting for it.  A thread
    is started only when no thread waits, and a thread whose session
    closes waits for the role unless two already wait, so sequential
    sessions start no thread and at most three server threads stay once
    a burst of sessions has ended.  A thread that cannot be started is
    counted ([serve.thread_errors]); the leader then serves its own
    connection and accepts again once it closes. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** loopback TCP listener when [Some] *)
  domains : int;  (** worker shards *)
  strategy : Secpol_policy.Engine.strategy;
  queue_capacity : int;
      (** per-shard ring depth, the admission bound: a full ring is
          retried 3 times from 0.5 ms backoff, doubling, then its rows
          are shed ({!Secpol_par.Pool.decide}) *)
  watchdog_deadline_s : float;
      (** a batch's answer deadline, from its submission: shards that miss
          it are answered with fail-safe denies and count one watchdog
          trip for the batch *)
}

val default_config : config
(** Unix socket ["secpold.sock"], no TCP, 1 domain, deny-overrides,
    1024-deep rings, 1 s watchdog. *)

type t

val start : ?config:config -> Secpol_policy.Ir.db -> t
(** Compile the policy, spawn the pool, bind and listen.  Returns with
    every worker ready and the listeners accepting.  It ignores SIGPIPE,
    for the whole process (a signal's disposition is process-wide): a
    client that hangs up before its answer fails that write with [EPIPE],
    which drops only its own session.
    @raise Invalid_argument when [config.domains < 1];
    @raise Unix.Unix_error when a socket cannot be bound. *)

val stop : t -> unit
(** Stop accepting, shut every open connection down, join every server
    thread, drain and join the pool, unlink the Unix socket.
    Idempotent. *)

val epoch : t -> int
(** Generation currently being served (1 until the first reload). *)

val wire_errors : t -> int

val watchdog_trips : t -> int

val shed : t -> int
(** Requests answered with shed fail-safe denies at admission. *)

val connections : t -> int
(** Open connections.  A connection leaves the count when its session
    ends, before the thread that served it turns to the accept role. *)

val threads : t -> int
(** Live server threads: the leader, the threads serving sessions and
    those waiting for the accept role (the [serve.threads] gauge). *)

val threads_started : t -> int
(** Server threads started since {!start}, the first leader included
    (the [serve.threads_started] counter). *)

val pool : t -> Secpol_par.Pool.t
(** The serving pool — exposed for tests (stall injection, epoch
    assertions); production callers talk over the socket. *)
