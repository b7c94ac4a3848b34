(** The hardware policy engine, installed on a CAN node (paper Fig. 4).

    The engine owns a register file and two decision blocks.  Its whole
    decision is two functions, one per direction: {!gate_rx} judges a
    frame arriving from the bus against the approved reading list, and
    {!gate_tx} judges a frame the node wants to send against the approved
    writing list, each then against its ID's budgets.  [install] plants
    exactly these two
    between the node's transceiver and controller; a replay of captured
    traffic calls them directly.  The engine is *transparent*: node
    firmware (the processor callback, the acceptance filters) is
    untouched, and once the register file is locked firmware cannot
    influence filtering at all. *)

type t

val install : ?obs:Secpol_obs.Registry.t -> Secpol_can.Node.t -> t
(** Create an HPE with a reset register file and attach its gates to the
    node, {!gate_rx} as the read gate and {!gate_tx} as the write gate,
    each with the bus simulator's clock.  Until filters are enabled by
    provisioning, everything passes.

    [obs] exports the engine's counters under [hpe.<node>.*]: the decision
    blocks' [read/write.grants/blocks], the behavioural [rate_blocks] and
    the impersonation [spoof_alerts], plus per-frame accept/drop tallies
    keyed by message-id class ([hpe.<node>.rx.accept.safety], ...).  The
    class counters materialise lazily on the first frame of that class, so
    a snapshot only lists traffic the node actually saw; without [obs] the
    gates do no per-class work at all. *)

val gate_rx : t -> now:float -> Secpol_can.Frame.t -> bool
(** The read gate: [true] delivers the frame to the controller.  A frame
    carrying one of the node's own IDs ({!Config.t.own_ids}) raises a
    spoof alert and is then judged like any other frame.  A frame passes
    when the register file holds its seal (else it is denied and counted
    in {!integrity_blocks}), and either the read filter is disabled or
    the reading {!Decision} block grants it and its ID's read chain
    admits it at [now] (as in {!gate_tx}).  Every call also bumps the
    per-class [rx.accept] or [rx.drop] tally when the engine exports
    telemetry. *)

val gate_tx : t -> now:float -> Secpol_can.Frame.t -> bool
(** The write gate: [true] lets the frame onto the bus.  The seal and the
    write-filter enable are checked as in {!gate_rx}.  A frame the
    writing {!Decision} block grants must then pass its ID's write chain
    ({!Registers.budgets}) at [now] (seconds), walked by
    {!Secpol_policy.Table.first_with_room}, or it is refused and counted in
    {!rate_blocks}.  Unrated and extended IDs touch no window. *)

val node_name : t -> string

val registers : t -> Registers.t

val provision : t -> Config.t -> (unit, string) result
(** {!Config.provision} with both filters enabled and the lock set. *)

val provision_unlocked : t -> Config.t -> (unit, string) result
(** Same but without locking — for the ablation that shows why the lock
    matters. *)

val locked : t -> bool

val read_grants : t -> int

val read_blocks : t -> int

val write_grants : t -> int

val write_blocks : t -> int

val rate_blocks : t -> int
(** Reads and writes that passed their approved list but found no room in
    their ID's budget chain (see {!gate_tx}). *)

val integrity_ok : t -> bool
(** {!Registers.integrity_ok} of this engine's register file. *)

val integrity_blocks : t -> int
(** Frames denied because the register file failed its seal: after
    out-of-band corruption (fault injection, bit flips) both gates fail
    closed and every crossing frame lands here until the file is
    re-provisioned. *)

val spoof_alerts : t -> int
(** Incoming frames carrying an ID this node exclusively produces
    ({!Config.t.own_ids}) — somebody on the bus is impersonating it.
    Alert-only: per-ID filtering cannot prove which copy is genuine, so
    the frame's fate is still decided by the reading list; the alert
    feeds intrusion detection. *)

val uninstall : t -> unit
(** Remove the gates from the node (for baseline comparisons). *)

val pp_stats : Format.formatter -> t -> unit
