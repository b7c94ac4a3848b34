module Threat = Secpol_threat.Threat
module Stride = Secpol_threat.Stride
module Dread = Secpol_threat.Dread
module Model = Secpol_threat.Model
module Derive = Secpol_policy.Derive

type row = {
  threat : Threat.t;
  paper_policy : Derive.access;
  paper_average : float;
}

let ev_ecu_spoof_disable_locks = "ev_ecu_spoof_disable_locks"

let ev_ecu_spoof_disable_sensors = "ev_ecu_spoof_disable_sensors"

let ev_ecu_tracking_disable = "ev_ecu_tracking_disable"

let ev_ecu_failsafe_override = "ev_ecu_failsafe_override"

let eps_deactivation = "eps_deactivation"

let engine_sensor_deactivation = "engine_sensor_deactivation"

let connectivity_component_modification = "connectivity_component_modification"

let connectivity_firmware_privacy = "connectivity_firmware_privacy"

let connectivity_modem_disable_emergency = "connectivity_modem_disable_emergency"

let connectivity_modem_disable_sensors = "connectivity_modem_disable_sensors"

let infotainment_browser_escalation = "infotainment_browser_escalation"

let infotainment_status_modification = "infotainment_status_modification"

let door_unlock_in_motion = "door_unlock_in_motion"

let door_lock_in_accident = "door_lock_in_accident"

let safety_false_failsafe = "safety_false_failsafe"

let safety_alarm_disable = "safety_alarm_disable"

let stride s =
  match Stride.of_string s with
  | Ok v -> v
  | Error e -> invalid_arg ("Threat_catalog: " ^ e)

let dread l =
  match Dread.of_list l with
  | Ok v -> v
  | Error e -> invalid_arg ("Threat_catalog: " ^ e)

let normal = Modes.name Modes.Normal

let fail_safe = Modes.name Modes.Fail_safe

let row ~id ~title ~description ~asset ~entry_points ~modes ~stride:s ~dread:d
    ~attack ~legit ~paper_policy ~paper_average =
  {
    threat =
      Threat.make ~id ~title ~description ~asset ~entry_points ~modes
        ~stride:(stride s) ~dread:(dread d) ~attack_operation:attack
        ~legitimate_operations:legit ();
    paper_policy;
    paper_average;
  }

open Names

let rows =
  [
    (* 1 *)
    row ~id:ev_ecu_spoof_disable_locks
      ~title:"Spoofed data over CAN bus causing disablement of ECU"
      ~description:
        "Spoofed lock/fail-safe signalling makes the propulsion controller \
         believe a disable condition holds while the car is in normal \
         operation."
      ~asset:ev_ecu
      ~entry_points:[ ep_door_locks; ep_safety_critical ]
      ~modes:[ normal ] ~stride:"STD" ~dread:[ 8; 5; 4; 6; 4 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.4;
    (* 2 *)
    row ~id:ev_ecu_spoof_disable_sensors
      ~title:"Spoofed sensor data causing disablement of ECU"
      ~description:
        "A forged obstacle/brake sensor feed triggers the ECU's emergency \
         reaction, denying propulsion."
      ~asset:ev_ecu
      ~entry_points:[ ep_sensors ]
      ~modes:[ normal ] ~stride:"STD" ~dread:[ 8; 5; 4; 6; 4 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.4;
    (* 3 *)
    row ~id:ev_ecu_tracking_disable
      ~title:"Disabled remote tracking system after theft"
      ~description:
        "The thief suppresses the ECU's remote tracking uplink so the \
         stolen vehicle cannot be located."
      ~asset:ev_ecu
      ~entry_points:[ ep_connectivity ]
      ~modes:[ normal ] ~stride:"SD" ~dread:[ 6; 3; 3; 6; 4 ]
      ~attack:Threat.Write
      ~legit:[ Threat.Read; Threat.Write ]
      ~paper_policy:Derive.RW ~paper_average:4.4;
    (* 4 *)
    row ~id:ev_ecu_failsafe_override
      ~title:"Fail-safe protection override to reactivate vehicle"
      ~description:
        "After a theft deactivation, the attacker replays enable commands \
         over the wireless link to restart the drivetrain."
      ~asset:ev_ecu
      ~entry_points:[ ep_connectivity ]
      ~modes:[ fail_safe ] ~stride:"STE" ~dread:[ 5; 5; 5; 7; 6 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.6;
    (* 5 *)
    row ~id:eps_deactivation
      ~title:"EPS deactivation through compromised CAN node"
      ~description:
        "Any compromised station broadcasts steering-assist shutdown \
         commands; steering becomes heavy at speed."
      ~asset:eps
      ~entry_points:[ ep_any_node ]
      ~modes:[ normal ] ~stride:"STD" ~dread:[ 5; 5; 5; 6; 7 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.6;
    (* 6 *)
    row ~id:engine_sensor_deactivation
      ~title:"Engine deactivation through compromised sensor"
      ~description:
        "A compromised sensor cluster forges values that drive the engine \
         controller into shutdown."
      ~asset:engine
      ~entry_points:[ ep_sensors ]
      ~modes:[ normal ] ~stride:"STD" ~dread:[ 6; 5; 4; 7; 5 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.4;
    (* 7 *)
    row ~id:connectivity_component_modification
      ~title:"Critical component modification during operation"
      ~description:
        "Pivoting from the drivetrain side, the attacker reconfigures the \
         telematics unit while the vehicle is in use."
      ~asset:asset_connectivity
      ~entry_points:[ ep_ev_ecu; ep_sensors ]
      ~modes:[ normal ] ~stride:"STIDE" ~dread:[ 7; 5; 5; 9; 4 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:6.0;
    (* 8 *)
    row ~id:connectivity_firmware_privacy
      ~title:"Privacy attack using modified radio firmware"
      ~description:
        "Modified radio firmware pushed through the infotainment unit \
         exfiltrates position and usage data."
      ~asset:asset_connectivity
      ~entry_points:[ ep_infotainment ]
      ~modes:[ normal ] ~stride:"TIE" ~dread:[ 7; 5; 5; 6; 5 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.6;
    (* 9 *)
    row ~id:connectivity_modem_disable_emergency
      ~title:"Prevent operation of fail-safe comms by disabling modem"
      ~description:
        "The emergency-call path is silenced by a forged modem shutdown \
         just when the fail-safe chain needs it."
      ~asset:asset_connectivity
      ~entry_points:[ ep_emergency; ep_door_locks ]
      ~modes:[ fail_safe ] ~stride:"TDE" ~dread:[ 6; 6; 7; 8; 6 ]
      ~attack:Threat.Write
      ~legit:[ Threat.Read; Threat.Write ]
      ~paper_policy:Derive.RW ~paper_average:6.6;
    (* 10 *)
    row ~id:connectivity_modem_disable_sensors
      ~title:"Prevent fail-safe comms via sensor/airbag path"
      ~description:
        "The same modem-silencing attack mounted through the crash-sensor \
         and airbag signalling path."
      ~asset:asset_connectivity
      ~entry_points:[ ep_sensors; ep_air_bags ]
      ~modes:[ fail_safe ] ~stride:"TDE" ~dread:[ 6; 6; 7; 8; 6 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:6.6;
    (* 11 *)
    row ~id:infotainment_browser_escalation
      ~title:"Exploit to gain access to higher control level"
      ~description:
        "A media-display browser exploit escalates into installing \
         software with access to vehicle control functions (the Jeep-style \
         pivot)."
      ~asset:infotainment
      ~entry_points:[ ep_media_browser ]
      ~modes:[ normal ] ~stride:"STE" ~dread:[ 7; 5; 6; 8; 6 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:6.4;
    (* 12 *)
    row ~id:infotainment_status_modification
      ~title:"Modification of car status values, GPS, speed, etc."
      ~description:
        "Forged status frames make the driver display lie about speed, \
         position and vehicle health."
      ~asset:infotainment
      ~entry_points:[ ep_sensors; ep_ev_ecu ]
      ~modes:[ normal ] ~stride:"STR" ~dread:[ 3; 5; 6; 4; 5 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:4.6;
    (* 13 *)
    row ~id:door_unlock_in_motion
      ~title:"Unlock attempt while in motion"
      ~description:
        "Remote or physical unlock signalling replayed while the vehicle \
         is being driven."
      ~asset:door_locks
      ~entry_points:[ ep_connectivity; ep_manual_open ]
      ~modes:[ normal ] ~stride:"TDE" ~dread:[ 8; 5; 3; 8; 5 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.8;
    (* 14 *)
    row ~id:door_lock_in_accident
      ~title:"Lock mechanism triggered during accident"
      ~description:
        "Forged lock commands during a crash keep occupants trapped; the \
         rescue chain legitimately needs write access to unlock."
      ~asset:door_locks
      ~entry_points:[ ep_connectivity; ep_safety_critical ]
      ~modes:[ fail_safe ] ~stride:"TDE" ~dread:[ 8; 6; 7; 8; 5 ]
      ~attack:Threat.Write ~legit:[ Threat.Write ] ~paper_policy:Derive.W
      ~paper_average:6.8;
    (* 15 *)
    row ~id:safety_false_failsafe
      ~title:"False triggering of fail-safe mode to unlock vehicle"
      ~description:
        "A forged crash condition flips the car into fail-safe, whose \
         unlock side-effect opens the doors for theft."
      ~asset:asset_safety_critical
      ~entry_points:[ ep_sensors ]
      ~modes:[ normal ] ~stride:"STE" ~dread:[ 7; 4; 5; 8; 4 ]
      ~attack:Threat.Write ~legit:[ Threat.Read ] ~paper_policy:Derive.R
      ~paper_average:5.6;
    (* 16 *)
    row ~id:safety_alarm_disable
      ~title:"Disable alarm and locking system to allow theft"
      ~description:
        "The alarm/locking controller is commanded off; arming is a \
         legitimate write, so coarse permissions leave residual risk."
      ~asset:asset_safety_critical
      ~entry_points:[ ep_sensors ]
      ~modes:[ normal ] ~stride:"TE" ~dread:[ 9; 4; 5; 9; 4 ]
      ~attack:Threat.Write ~legit:[ Threat.Write ] ~paper_policy:Derive.W
      ~paper_average:6.2;
  ]

let threats = List.map (fun r -> r.threat) rows

let find id = List.find_opt (fun r -> r.threat.Threat.id = id) rows

let model () =
  let m =
    Model.make_exn ~use_case:"Connected car"
      ~description:
        "Threat modelling of a connected car application use case (paper \
         Table I): CAN-bus-connected EV-ECU, EPS, engine, telematics, \
         infotainment, door locks, safety-critical controller and sensor \
         cluster, operating in normal, remote-diagnostic and fail-safe \
         modes."
      ~assets:Assets.all ~entry_points:Assets.entry_points
      ~modes:(List.map Modes.name Modes.all)
      ~threats ()
  in
  List.fold_left
    (fun m cm ->
      match Model.add_countermeasure m cm with
      | Ok m -> m
      | Error es ->
          invalid_arg ("Threat_catalog.model: " ^ String.concat "; " es))
    m
    (Derive.countermeasures m)

(* Threat entry points name attack surfaces; requests arrive as the asset
   names of the CAN nodes behind them, which is what policy rules bind.
   An obligation reads only its threat, so this maps [threats] rather
   than building and validating [model ()]. *)
let obligations () =
  List.map
    (Secpol_threat.Obligation.of_threat ~subjects_of_entry_point:(fun ep ->
         List.map Names.asset_of_node (Names.nodes_of_entry_point ep)))
    threats
