(** Deterministic fault schedules.

    A plan is a list of (time, fault) injections against one simulated car.
    Plans are either hand-authored (the named plans below) or generated
    from a seed; either way the schedule is fully determined before the
    run starts, so a campaign is reproducible from [(seed, plan name)]
    alone. *)

type entry = { at : float; kind : Fault.kind }

type t = { name : string; horizon : float; entries : entry list }

type topology = { segments : string list; gateways : string list }
(** The names a segment-scoped plan may reference. *)

val validate : ?topology:topology -> t -> (unit, string) result
(** Every entry inside [0, horizon) and individually well-formed.  With
    [topology], segment-scoped entries naming unknown segments or
    gateways are rejected too, and so is a bus-wide fault
    ([Babbling_idiot], [Corruption_burst]) when the topology has more
    than one segment: such a fault names no segment. *)

val segment_scoped : t -> bool
(** The plan contains at least one segment-scoped fault
    ([Segment_partition], [Segment_babble], [Gateway_crash]) and so runs
    on the four-segment car ({!Harness.create}) rather than the flat
    one. *)

val degrading : t -> bool
(** [true] when the plan is expected to end latched in [Fail_safe] (it
    stalls the policy engine); [false] means the run must recover to the
    never-faulted steady state. *)

val stall : horizon:float -> t
(** Policy engine stalls mid-run; the watchdog must drive the car into
    fail-safe within its deadline. *)

val storm : horizon:float -> t
(** Babbling-idiot flood followed by a line-noise burst. *)

val partition : horizon:float -> t
(** The connectivity-side stations drop off the bus, then heal. *)

val crash : horizon:float -> t
(** Two overlapping node crash/restart cycles. *)

val hpe_corruption : horizon:float -> t
(** A bit flip in one node's approved-list RAM; scrubbed later. *)

val skewed_stall : horizon:float -> t
(** A policy stall while the watchdog's clock runs slow — detection must
    still happen within the skew-adjusted bound. *)

val segment_partition : horizon:float -> t
(** The infotainment segment's medium is severed, then repaired. *)

val segment_babble : horizon:float -> t
(** A rogue station saturates the infotainment segment's arbitration with
    top-priority frames (period below the frame wire time). *)

val gateway_failover : horizon:float -> t
(** The infotainment gateway crashes, then fails over into the
    fail-closed minimal-crossing limp-home. *)

val threat_trigger : ?msg_id:int -> at:float -> horizon:float -> unit -> t
(** A single Table-I threat going live at [at] and staying live until the
    horizon: a forged-frame flood ({!Fault.Babbling_idiot}) carrying
    [msg_id] (default the door-lock command, the row-14 attack vector).
    Plan times are unitless floats — the chaos harness reads them as
    seconds against one car, a fleet campaign
    ({!Secpol_lifecycle.Campaign}) reads the same schedule in days.
    @raise Invalid_argument unless [0 <= at < horizon]. *)

val threat_window : t -> (float * float * int) option
(** [(activation, clearance, msg_id)] of the plan's first forged-frame
    flood (clearance clamped to the horizon); [None] when the plan
    carries no such fault. *)

val generate : ?faults:int -> seed:int64 -> horizon:float -> unit -> t
(** [faults] (default 4) random recoverable faults at seeded times. *)

val named : string list
(** CLI plan names accepted by {!of_name}. *)

val of_name : ?seed:int64 -> ?horizon:float -> string -> t option
(** Resolve a CLI name; [seed] only shapes the ["mixed"] plan, [horizon]
    (default 4 s) scales every plan. *)

val pp : Format.formatter -> t -> unit
