(** The [secpold] decision daemon: a long-running enforcement point.

    The paper's runtime-enforcement argument only holds if decisions are
    served {e continuously while policies change underneath} — the
    mitigation path for a fielded vulnerability is a policy update, not
    a recall.  The daemon therefore never stops answering:

    - decisions run on a persistent {!Secpol_par.Pool} — one pinned
      worker per shard, requests routed by subject so rate budgets stay
      shard-local;
    - a reload compiles the new policy {e off-path}, gates it with
      {!Secpol_policy.Verify.diff} (widenings are refused unless
      explicitly allowed), then publishes it with one atomic pointer
      swap — zero dropped requests, and no decision made after the ack
      is stale;
    - overload sheds at admission with fail-safe denies (the gateway's
      retry-then-shed discipline), and a per-batch watchdog answers
      denies when a shard misses its deadline rather than hanging the
      client;
    - undecodable input is counted ([serve.wire_errors]) and the
      connection dropped — the daemon itself never dies from a frame.

    Transport is a Unix-domain socket, plus an optional loopback TCP
    port; one thread per connection, messages framed by {!Wire}. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** loopback TCP listener when [Some] *)
  domains : int;  (** worker shards *)
  strategy : Secpol_policy.Engine.strategy;
  queue_capacity : int;  (** per-shard ring depth (admission bound) *)
  watchdog_deadline_s : float;  (** per-shard answer deadline *)
  admission_retries : int;  (** retries before shedding a full ring *)
  retry_backoff_s : float;  (** base backoff between admission retries *)
}

val default_config : config
(** Unix socket ["secpold.sock"], no TCP, 1 domain, deny-overrides,
    1024-deep rings, 1 s watchdog, 3 admission retries at 0.5 ms base
    backoff. *)

type t

val start : ?config:config -> Secpol_policy.Ir.db -> t
(** Compile the policy, spawn the pool, bind and listen.  Returns with
    every worker ready and the listeners accepting.
    @raise Invalid_argument when [config.domains < 1];
    @raise Unix.Unix_error when a socket cannot be bound. *)

val stop : t -> unit
(** Stop accepting, close every connection, drain and join the pool,
    unlink the Unix socket.  Idempotent. *)

val epoch : t -> int
(** Generation currently being served (1 until the first reload). *)

val wire_errors : t -> int

val watchdog_trips : t -> int

val shed : t -> int
(** Requests answered with shed fail-safe denies at admission. *)

val pool : t -> Secpol_par.Pool.t
(** The serving pool — exposed for tests (stall injection, epoch
    assertions); production callers talk over the socket. *)
