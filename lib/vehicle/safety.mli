(** Safety-critical controller: airbags, alarm/immobiliser and the
    fail-safe chain.

    On a crash-magnitude brake reading it deploys the airbag and enters
    fail-safe (so a *spoofed* crash reading is Table I threat 15); the
    alarm immobilises the drivetrain when armed (disabling it is threat
    16).  It writes no mode: it requests Fail_safe from the car
    ({!State.t.request_fail_safe}), and broadcasts [failsafe_enter] and
    sends the rescue unlock only when the car moved, once per entry. *)

val create :
  Secpol_sim.Engine.t -> Secpol_can.Bus.t -> State.t -> Secpol_can.Node.t

val trigger_crash : Secpol_can.Node.t -> State.t -> unit
(** Physical crash: deploy airbag, broadcast fail-safe entry. *)

val arm_alarm : Secpol_can.Node.t -> State.t -> unit
(** Arm the alarm and immobilise the drivetrain (parked & locked car). *)

val disarm_alarm : Secpol_can.Node.t -> State.t -> unit
(** Disarm and lift the immobiliser. *)
