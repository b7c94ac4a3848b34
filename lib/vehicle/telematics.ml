module Engine = Secpol_sim.Engine

let create sim bus state =
  let node = Ecu.make_node bus ~name:Names.telematics in
  let log msg = State.log state ~time:(Engine.now sim) msg in
  let emergency_call reason =
    if state.State.modem_enabled then begin
      state.State.emergency_calls <- state.State.emergency_calls + 1;
      log (Printf.sprintf "telematics: emergency call placed (%s)" reason)
    end
    else log (Printf.sprintf "telematics: EMERGENCY CALL FAILED, modem down (%s)" reason)
  in
  let handlers =
    [
      ( Messages.modem_command,
        fun ~sender:_ frame ->
          match Ecu.command frame with
          | Some c when c = Messages.cmd_disable ->
              if state.State.modem_enabled then begin
                state.State.modem_enabled <- false;
                state.State.tracking_enabled <- false;
                log "telematics: modem disabled (tracking lost)"
              end
          | Some c when c = Messages.cmd_enable ->
              if not state.State.modem_enabled then begin
                state.State.modem_enabled <- true;
                state.State.tracking_enabled <- true;
                log "telematics: modem enabled"
              end
          | Some _ | None -> () );
      (Messages.airbag_deploy, fun ~sender:_ _frame -> emergency_call "airbag");
    ]
  in
  Secpol_can.Node.set_on_receive node (Ecu.dispatch handlers);
  Ecu.start_periodic sim node
    (Messages.find_exn Messages.gps_position)
    ~payload:(fun () -> "\042\000\000\000\000\000\000\000")
    ~enabled:(fun () -> state.State.modem_enabled);
  Ecu.start_periodic sim node
    (Messages.find_exn Messages.tracking_report)
    ~payload:(fun () -> "\001\000\000\000\000\000\000\000")
    ~enabled:(fun () ->
      state.State.modem_enabled && state.State.tracking_enabled);
  node

let remote_lock node =
  Ecu.send_command node (Messages.find_exn Messages.lock_command) Messages.cmd_lock

let remote_unlock node =
  Ecu.send_command node (Messages.find_exn Messages.lock_command) Messages.cmd_unlock

let request_diagnostics node =
  Ecu.send node (Messages.find_exn Messages.diag_request) "\001"
