module Engine = Secpol_sim.Engine
module Node = Secpol_can.Node

let now node = Engine.now (Secpol_can.Bus.sim (Node.bus node))

let deploy_airbag node (state : State.t) reason =
  State.log state ~time:(now node)
    (Printf.sprintf "safety: airbag deployed (%s)" reason);
  ignore
    (Ecu.send_command node (Messages.find_exn Messages.airbag_deploy) '\001');
  (* the car moves the mode and the HPEs; the fail-safe actions are this
     ECU's, once per entry *)
  if state.request_fail_safe ~by:"safety" reason then begin
    ignore
      (Ecu.send_command node
         (Messages.find_exn Messages.failsafe_enter)
         '\001');
    (* rescue access: unlock the doors *)
    ignore
      (Ecu.send_command node
         (Messages.find_exn Messages.lock_command)
         Messages.cmd_unlock)
  end

let trigger_crash node state = deploy_airbag node state "crash"

let arm_alarm node (state : State.t) =
  if not state.alarm_armed then begin
    state.alarm_armed <- true;
    State.log state ~time:(now node) "safety: alarm armed (immobilised)";
    ignore
      (Ecu.send_command node
         (Messages.find_exn Messages.ecu_command)
         Messages.cmd_disable)
  end

let disarm_alarm node (state : State.t) =
  if state.alarm_armed then begin
    state.alarm_armed <- false;
    State.log state ~time:(now node) "safety: alarm disarmed";
    ignore
      (Ecu.send_command node
         (Messages.find_exn Messages.ecu_command)
         Messages.cmd_enable)
  end

let create sim bus state =
  let node = Ecu.make_node bus ~name:Names.safety in
  ignore sim;
  let handlers =
    [
      ( Messages.brake_status,
        fun ~sender:_ frame ->
          match Ecu.command frame with
          | Some c when c = Sensors.crash_signal ->
              deploy_airbag node state "crash-magnitude deceleration"
          | Some _ | None -> () );
      ( Messages.obstacle_warning,
        fun ~sender:_ frame ->
          (* Immediate-reaction case from §V.A: stationary obstacle while
             manoeuvring at low speed -> cut propulsion. *)
          match Ecu.command frame with
          | Some d
            when Char.code d < 2
                 && state.State.speed_kmh > 0.0
                 && state.State.speed_kmh < 10.0 ->
              ignore
                (Ecu.send_command node
                   (Messages.find_exn Messages.ecu_command)
                   Messages.cmd_disable)
          | Some _ | None -> () );
    ]
    @ [ Ecu.diag_responder node state ]
  in
  Node.set_on_receive node (Ecu.dispatch handlers);
  node
