(** Compiling a policy database into HPE approved lists.

    The bridge between the policy world (subject/asset/operation) and the
    HPE world (message IDs): a [binding] declares which asset's state each
    CAN message ID carries.  For a node hosting subject [s] in mode [m],
    message ID [i] bound to asset [a] is approved for reading when the
    policy allows [(m, s, a, read)], and for writing when it allows
    [(m, s, a, write)]. *)

type binding = { msg_id : int; asset : string }
(** [msg_id] is a standard (11-bit) CAN ID. *)

type t = {
  read_ids : int list;
  write_ids : int list;
  write_rates : (int * Secpol_policy.Ast.rate) list;
      (** behavioural budgets for approved write IDs, from rate-carrying
          policy rules *)
  own_ids : int list;
      (** IDs this node is the *exclusive* designed producer of; an
          incoming frame carrying one of them must be an impersonation and
          raises a spoof alert ({!Engine.spoof_alerts}) *)
}

val make :
  ?write_rates:(int * Secpol_policy.Ast.rate) list ->
  ?own_ids:int list ->
  read_ids:int list ->
  write_ids:int list ->
  unit ->
  t

val of_policy :
  Secpol_policy.Table.t ->
  mode:string ->
  subjects:string list ->
  bindings:binding list ->
  (string * t) list
(** Each subject's approved lists in one mode, read off a table compiled
    for [Deny_overrides] (the composition the hardware lists model, SP008)
    with {!Secpol_policy.Table.static_query}: one dispatch per (subject,
    asset, op), then one answer per bound message ID.  The query is
    static: every binding is decided with a fresh rate budget that is
    never spent, so a rated allow approves every ID it covers while its
    count is positive, and no decision depends on the bindings decided
    before it.  An approved write ID's rate is the strictest rate among
    the matching allow rules, and it has none when one of them is
    unlimited.  [own_ids] is left empty.  The result lists [subjects] in
    order.
    @raise Invalid_argument when the table was compiled for another
    strategy. *)

val provision :
  Registers.t ->
  t ->
  ?enable_read:bool ->
  ?enable_write:bool ->
  ?lock:bool ->
  unit ->
  (unit, string) result
(** Boot-time provisioning through the register file: clear, load both
    lists, set the enables (default both [true]) and finally the lock
    (default [true]).  Fails if the register file is already locked. *)

val pp : Format.formatter -> t -> unit
