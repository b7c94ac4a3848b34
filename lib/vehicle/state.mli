(** Shared vehicle state mutated by the ECU behaviour models.

    Attack scenarios assert on this state: "spoofed CAN data causing
    disablement of the ECU" succeeded iff [ev_ecu_enabled] went false
    during normal operation. *)

type t = {
  mutable mode : Modes.t;  (** written by {!Topology_car} only *)
  mutable ev_ecu_enabled : bool;  (** propulsion control responding *)
  mutable engine_running : bool;
  mutable eps_active : bool;  (** power steering assistance *)
  mutable doors_locked : bool;
  mutable alarm_armed : bool;
  mutable modem_enabled : bool;  (** 3G/4G/WiFi radio *)
  mutable tracking_enabled : bool;  (** remote theft tracking *)
  mutable failsafe_latched : bool;
      (** Fail_safe entered and not left, written by {!Topology_car} only;
          {!Topology_car.set_mode} to another mode clears it *)
  mutable speed_kmh : float;
  mutable software_installs : int;  (** infotainment package installs *)
  mutable emergency_calls : int;  (** eCall attempts that went out *)
  mutable journal : (float * string) list;  (** newest first; use {!events} *)
  mutable modes : (float * Modes.t) list;
      (** each mode entered and when, newest first, down to Normal at 0;
          written by {!Topology_car} only *)
  mutable request_fail_safe : by:string -> string -> bool;
      (** an ECU's way into Fail_safe ({!Topology_car.create} installs it):
          {!Topology_car.enter_fail_safe} under [by], [false] if latched *)
}

val create : unit -> t
(** A healthy car: ECU enabled, engine off, doors unlocked, alarm off,
    modem on, tracking on, stationary. *)

val driving : unit -> t
(** Normal mode, engine running, EPS active, 50 km/h, doors locked. *)

val log : t -> time:float -> string -> unit
(** Append to the event journal. *)

val events : t -> (float * string) list
(** Chronological journal of state-changing events. *)

val pp : Format.formatter -> t -> unit
