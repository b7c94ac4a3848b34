(** The hardware policy engine, installed on a CAN node (paper Fig. 4).

    The engine owns a register file and two decision blocks.  [install]
    plants read/write gates between the node's transceiver and controller;
    the gates consult the decision blocks, which consult the approved lists
    in the register file.  The engine is *transparent*: node firmware (the
    processor callback, the acceptance filters) is untouched, and once the
    register file is locked firmware cannot influence filtering at all. *)

type t

val install : ?obs:Secpol_obs.Registry.t -> Secpol_can.Node.t -> t
(** Create an HPE with a reset register file and attach its gates to the
    node.  Until filters are enabled by provisioning, everything passes.

    [obs] exports the engine's counters under [hpe.<node>.*]: the decision
    blocks' [read/write.grants/blocks], the behavioural [rate_blocks] and
    the impersonation [spoof_alerts], plus per-frame accept/drop tallies
    keyed by message-id class ([hpe.<node>.rx.accept.safety], ...).  The
    class counters materialise lazily on the first frame of that class, so
    a snapshot only lists traffic the node actually saw; without [obs] the
    gates do no per-class work at all. *)

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
(** Writes that passed the approved list but exceeded their behavioural
    budget (see {!Rate_limiter}). *)

val integrity_ok : t -> bool
(** {!Registers.integrity_ok} of this engine's register file. *)

val integrity_blocks : t -> int
(** Frames denied because the register file failed its checksum: after
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

val gate_rx_batch : t -> ?n:int -> ids:int array -> out:bool array -> unit -> unit
(** Run the first [n] (default: all) raw standard IDs of the [ids] column
    through the rx gate in bulk, writing each frame's accept verdict into
    [out.(i)].  Counter-for-counter equivalent to the per-frame gate on
    the same IDs — spoof alerts, integrity blocks, read grants/blocks and
    per-class tallies all advance identically — but the integrity and
    filter-enable register checks are hoisted out of the loop (nothing
    can change the register file mid-batch), and membership is tested
    with {!Approved_list.mem_std}, so the loop allocates nothing.  This
    is the shape bulk candump replay decomposes into.
    @raise Invalid_argument when [n] is outside [ids] or [out] is shorter
    than the batch. *)

type replay = {
  frames : int;  (** records judged *)
  accepted : int;  (** frames the rx gate passed *)
  dropped : int;  (** frames the rx gate blocked *)
}

val replay_candump : t -> Secpol_can.Candump.record list -> replay
(** Replay a parsed candump capture ({!Secpol_can.Candump.import})
    through this engine's rx gate, without a simulator: standard-ID runs
    are packed into a reusable column and judged with {!gate_rx_batch}
    (flushed at chunk boundaries and before any extended-ID frame, so
    counters advance in capture order); extended frames take the
    per-frame path.  Useful for asking "what would this HPE have dropped
    from a real capture?" at bulk speed. *)

val pp_stats : Format.formatter -> t -> unit
