(** Car policies derived from the message map.

    [baseline] is the least-privilege policy the paper's approach arrives
    at: every designed producer may write exactly its message IDs, every
    designed consumer may read exactly what it acts on, everything else is
    denied by default.  [permissive] is the factory state of a device
    shipped without security policies (everything allowed) — the "before"
    of the policy-update scenarios. *)

val baseline : ?version:int -> unit -> Secpol_policy.Ast.policy
(** Policy name ["car_baseline"]; subjects are asset names (the asset
    hosted by the requesting node); rules are message-ID scoped; messages
    designed for specific modes get mode sections. *)

val permissive : ?version:int -> unit -> Secpol_policy.Ast.policy
(** Policy name ["car_baseline"] as well, so an update from [permissive]
    to [baseline] is a version bump of the same policy. *)

val hardened : ?version:int -> unit -> Secpol_policy.Ast.policy
(** The baseline plus the "more complex behavioural or situational based
    policies" the paper's Table I calls for on its residual rows:
    - situational: in fail-safe mode, door-lock writes from the
      connectivity path are denied (closes row 14 — doors cannot be
      remotely relocked during an accident — while normal-mode remote
      locking keeps working);
    - behavioural: lock commands are budgeted to 2 per 10 s per writer, so
      a replayed lock/unlock storm from a compromised legitimate writer is
      shaped down to the designed rate. *)

val compile : Secpol_policy.Ast.policy -> Secpol_policy.Ir.db
(** Compile against the car's known modes / assets / subjects.  This is
    the database {!engine} evaluates; fleet campaigns use it directly so
    one {!Secpol_policy.Table.compile} of the result can be shared by
    every vehicle on that version.
    @raise Invalid_argument if the policy does not compile. *)

val engine :
  ?strategy:Secpol_policy.Engine.strategy ->
  Secpol_policy.Ast.policy ->
  Secpol_policy.Engine.t
(** Compile and wrap in an evaluation engine.
    @raise Invalid_argument if the policy does not compile. *)

val hpe_configs :
  Secpol_policy.Table.t -> Modes.t -> (string * Secpol_hpe.Config.t) list
(** Every node's HPE approved lists in one mode, in {!Names.nodes} order,
    over the full message map: one static pass over a table compiled for
    [Deny_overrides] ({!Secpol_hpe.Config.of_policy}), plus each node's
    [own_ids], the IDs it is the only designed producer of.
    @raise Invalid_argument when the table was compiled for another
    strategy. *)
