(** One deployed vehicle as seen by a fleet campaign.

    A fleet holds one compiled {!Secpol_policy.Table} per policy {e
    version}; an instance is only the per-vehicle mutable remainder —
    which version is installed, the vehicle's operating mode, and the
    vehicle's own behavioural rate windows.  A million instances over a
    two-version rollout therefore share exactly two tables; nothing about
    an instance scales with policy size.

    {b Decision routing.}  A fleet asks a few fixed requests over and
    over, so each one is resolved once per version
    ({!Secpol_policy.Table.resolve}) and a vehicle's decision reads that
    answer.  Only a request that a rated allow matches consults a budget,
    and {!decide} walks those rules against this vehicle's own windows.
    Subjects are {e role} names shared by every vehicle, so an engine's
    budgets, keyed [(rule, subject)], would conflate vehicles; the
    windows here are keyed the same way but live inside one instance.
    Decisions then match {!Secpol_policy.Engine.decide} on a private
    engine fed the same request sequence. *)

type t

val create : ?mode:string -> id:int -> version:int -> unit -> t
(** A vehicle running policy [version] in [mode] (default ["normal"]).
    No window is allocated until the first rated decision. *)

val id : t -> int

val version : t -> int

val mode : t -> string

val set_mode : t -> string -> unit

val install : t -> version:int -> unit
(** Install a policy version.  All rate-window history is dropped: rule
    indices are only meaningful within one compiled version, and a fresh
    policy starts with full budgets — exactly what a device-side policy
    swap does ({!Secpol_policy.Engine.swap_db} behaves the same way). *)

val decide :
  t ->
  Secpol_policy.Table.resolved ->
  subject:string ->
  now:float ->
  Secpol_policy.Ast.decision
(** [decide t res ~subject ~now] answers a resolved request for this
    vehicle: {!Secpol_policy.Table.first_with_room} over its windows for
    [(rule index, subject)], so the first that admits at [now] grounds
    [Allow], and with none the answer is [res.otherwise].  The first look
    at a rule materialises its window, so two vehicles never share one. *)

val live_budgets : t -> int
(** Rate windows materialised so far (0 until a rated rule is looked
    at); drops back to 0 on {!install}. *)
