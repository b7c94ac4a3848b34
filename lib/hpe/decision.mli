(** The HPE decision block (paper Fig. 4): compares a frame's message ID
    against the approved list for its direction and grants or blocks.
    An engine holds one block per direction; {!Engine.gate_rx} and
    {!Engine.gate_tx} are its only callers on the frame path. *)

type direction = Reading | Writing

type verdict = Grant | Block

type t
(** A decision block bound to one approved list, with counters. *)

val create : direction -> Approved_list.t -> t

val direction : t -> direction

val decide : t -> Secpol_can.Frame.t -> verdict
(** Grant iff the frame's identifier is on the approved list, bumping the
    matching counter.  Remote frames are judged by the same identifier
    rule. *)

val grants : t -> int

val blocks : t -> int

val counters : t -> Secpol_obs.Counter.t * Secpol_obs.Counter.t
(** The (grants, blocks) counter instances, so an engine can register them
    with a telemetry registry. *)

val reset_counters : t -> unit

val direction_name : direction -> string

val verdict_name : verdict -> string
