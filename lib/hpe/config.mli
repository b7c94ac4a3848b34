(** Compiling a policy database into HPE approved lists and budgets.

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
  budgets : Registers.budgets;
      (** behavioural budgets for approved IDs, from rate-carrying policy
          rules *)
  own_ids : int list;
      (** IDs this node is the *exclusive* designed producer of; an
          incoming frame carrying one of them must be an impersonation and
          raises a spoof alert ({!Engine.spoof_alerts}) *)
}

val make :
  ?budgets:Registers.budgets ->
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
(** Each subject's approved lists and budgets in one mode, read off a
    table compiled for [Deny_overrides] (the composition the hardware
    lists model, SP008) with {!Secpol_policy.Table.resolver}: one
    dispatch per (subject, asset, op), then one answer per bound message
    ID.  An ID is approved when a fresh budget allows it (its answer has
    a rated allow or [otherwise = Allow]); a rated answer becomes its
    chain, one slot per rule.  An ID bound to several assets is approved
    when any binding approves it and takes its first rated binding's
    chain.  [own_ids] is left empty.  The result lists [subjects] in
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
    lists and the budgets, set the enables (default both [true]) and
    finally the lock (default [true]).  Fails if the register file is
    already locked or refuses the budgets. *)

val pp : Format.formatter -> t -> unit
