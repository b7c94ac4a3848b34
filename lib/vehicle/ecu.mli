(** Shared plumbing for the ECU behaviour models.

    Every ECU is a CAN node with (a) software acceptance filters matching
    the message map's consumer sets, (b) periodic telemetry, and (c) an
    event handler over decoded commands.  The helpers here keep the eight
    ECU modules small and uniform. *)

val frame_of : Messages.t -> string -> Secpol_can.Frame.t
(** Build the message's frame, padding/truncating the payload to its DLC. *)

val command_frame : Messages.t -> char -> Secpol_can.Frame.t
(** One-command-byte frame (padded to the DLC). *)

val command : Secpol_can.Frame.t -> char option
(** First payload byte, if any. *)

val send : Secpol_can.Node.t -> Messages.t -> string -> bool
(** Build and transmit; result as {!Secpol_can.Node.send}. *)

val send_command : Secpol_can.Node.t -> Messages.t -> char -> bool

val software_filters : string -> Secpol_can.Acceptance.t list
(** Exact acceptance filters for every message the named node consumes —
    the firmware-configured filter bank the paper contrasts with the
    HPE. *)

val make_node :
  ?software_filters:bool -> Secpol_can.Bus.t -> name:string -> Secpol_can.Node.t
(** Node named after a {!Names} constant; [software_filters] (default
    [true]) installs the consumer filter bank. *)

val start_periodic :
  Secpol_sim.Engine.t ->
  Secpol_can.Node.t ->
  Messages.t ->
  payload:(unit -> string) ->
  enabled:(unit -> bool) ->
  unit
(** Emit the message at its map period while [enabled ()]; messages without
    a period are ignored. *)

val dispatch :
  (int * (sender:string -> Secpol_can.Frame.t -> unit)) list ->
  Secpol_can.Node.t ->
  sender:string ->
  Secpol_can.Frame.t ->
  unit
(** Route a received frame to the handler registered for its standard ID
    (the first one listed, if several are); unknown IDs are ignored
    (already filtered). *)

val diag_responder :
  Secpol_can.Node.t ->
  State.t ->
  int * (sender:string -> Secpol_can.Frame.t -> unit)
(** Handler entry for [diag_request]: in remote-diagnostic mode the ECU
    answers with a [diag_response] carrying its node tag; in any other
    mode the request is ignored (and the mode-scoped policy keeps it off
    the bus in the first place). *)
