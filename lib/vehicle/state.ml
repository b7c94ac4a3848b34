type t = {
  mutable mode : Modes.t;
  mutable ev_ecu_enabled : bool;
  mutable engine_running : bool;
  mutable eps_active : bool;
  mutable doors_locked : bool;
  mutable alarm_armed : bool;
  mutable modem_enabled : bool;
  mutable tracking_enabled : bool;
  mutable failsafe_latched : bool;
  mutable speed_kmh : float;
  mutable software_installs : int;
  mutable emergency_calls : int;
  mutable journal : (float * string) list;
  mutable modes : (float * Modes.t) list;
  mutable request_fail_safe : by:string -> string -> bool;
}

let create () =
  {
    mode = Modes.Normal;
    ev_ecu_enabled = true;
    engine_running = false;
    eps_active = false;
    doors_locked = false;
    alarm_armed = false;
    modem_enabled = true;
    tracking_enabled = true;
    failsafe_latched = false;
    speed_kmh = 0.0;
    software_installs = 0;
    emergency_calls = 0;
    journal = [];
    modes = [ (0.0, Modes.Normal) ];
    request_fail_safe = (fun ~by:_ _ -> false);
  }

let driving () =
  let t = create () in
  t.engine_running <- true;
  t.eps_active <- true;
  t.doors_locked <- true;
  t.speed_kmh <- 50.0;
  t

let log t ~time message = t.journal <- (time, message) :: t.journal

let events t = List.rev t.journal

let pp ppf t =
  Format.fprintf ppf
    "mode=%s ecu=%b engine=%b eps=%b doors-locked=%b alarm=%b modem=%b tracking=%b failsafe=%b speed=%.0fkm/h"
    (Modes.name t.mode) t.ev_ecu_enabled t.engine_running t.eps_active
    t.doors_locked t.alarm_armed t.modem_enabled t.tracking_enabled
    t.failsafe_latched t.speed_kmh
