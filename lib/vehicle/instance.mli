(** One deployed vehicle as seen by a fleet campaign.

    A fleet holds one compiled {!Secpol_policy.Table} per policy {e
    version}; an instance is only the per-vehicle mutable remainder —
    which version is installed, the vehicle's operating mode, and the
    vehicle's own behavioural rate windows.  A million instances over a
    two-version rollout therefore share exactly two tables; nothing about
    an instance scales with policy size.

    {b Decision routing.}  Every decision for a vehicle is one
    {!Secpol_policy.Table.decide_row} against its version's shared table.
    Subjects are {e role} names shared by every vehicle, so an engine's
    budgets, keyed [(rule, subject)], would conflate vehicles; the
    caller's row callbacks send a rated rule to {!rate_available} and
    {!rate_consume} of the vehicle being decided for instead.  Decisions
    then match {!Secpol_policy.Engine.decide} on a private engine fed the
    same request sequence. *)

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

val rate_available : t -> Secpol_policy.Ir.rule -> string -> now:float -> bool
(** [rate_available t r subject ~now]: has rated rule [r] room at [now]
    in this vehicle's window for [subject]?  Windows are keyed
    [(rule index, subject)] {e inside this instance}, so two vehicles
    never share one; the first look materialises the window.  A rule
    without a rate is always available.  Does not consume. *)

val rate_consume : t -> Secpol_policy.Ir.rule -> string -> now:float -> unit
(** Record a grant of [r] for [subject] at [now] in this vehicle's
    window (a no-op for a rule without a rate). *)

val live_budgets : t -> int
(** Rate windows materialised so far (0 until a rated rule is looked
    at); drops back to 0 on {!install}. *)
