(* Quickstart: model a tiny device, derive an enforceable policy, evaluate
   requests against it, and ship an update.

   Run with: dune exec examples/quickstart.exe *)

module Threat = Secpol.Threat
module Policy = Secpol.Policy

let ok = function Ok v -> v | Error e -> failwith e

let () =
  (* 1. Application threat modelling: a smart door lock with two assets. *)
  let assets =
    [
      Threat.Asset.make ~id:"lock_motor" ~name:"Lock motor"
        ~description:"actuator that bolts the door" Threat.Asset.Safety_critical;
      Threat.Asset.make ~id:"access_log" ~name:"Access log"
        ~description:"who opened the door, when" Threat.Asset.Privacy;
    ]
  in
  let entry_points =
    [
      Threat.Entry_point.make ~id:"ble" ~name:"Bluetooth LE"
        Threat.Entry_point.Wireless;
      Threat.Entry_point.make ~id:"cloud" ~name:"Cloud API"
        Threat.Entry_point.Network;
      Threat.Entry_point.make ~id:"keypad" ~name:"Keypad"
        Threat.Entry_point.Physical;
    ]
  in
  (* STRIDE classification and DREAD scores per identified threat. *)
  let threats =
    [
      Threat.Threat.make ~id:"replay_unlock"
        ~title:"Replayed BLE unlock command"
        ~asset:"lock_motor" ~entry_points:[ "ble" ]
        ~stride:(ok (Threat.Stride.of_string "ST"))
        ~dread:(ok (Threat.Dread.of_list [ 8; 6; 5; 7; 6 ]))
        ~attack_operation:Threat.Threat.Write
        ~legitimate_operations:[ Threat.Threat.Read ] ();
      Threat.Threat.make ~id:"log_exfiltration"
        ~title:"Access-log exfiltration through the cloud API"
        ~asset:"access_log" ~entry_points:[ "cloud" ]
        ~stride:(ok (Threat.Stride.of_string "I"))
        ~dread:(ok (Threat.Dread.of_list [ 5; 7; 6; 8; 7 ]))
        ~attack_operation:Threat.Threat.Read
        ~legitimate_operations:[ Threat.Threat.Read ] ();
    ]
  in
  let model =
    Threat.Model.make_exn ~use_case:"Smart door lock" ~assets ~entry_points
      ~threats ()
  in
  Format.printf "%a@." Threat.Model.pp_report model;

  (* 2. The paper's move: derive an enforceable policy instead of prose. *)
  let report = Secpol.Pipeline.derive model in
  print_endline "Derived policy:";
  print_string report.Secpol.Pipeline.bundle.Policy.Update.source;

  (* 3. Enforce it. *)
  let engine = Policy.Engine.create report.Secpol.Pipeline.db in
  let request subject op =
    {
      Policy.Ir.mode = "";
      subject;
      asset = "lock_motor";
      op;
      msg_id = None;
    }
  in
  let show subject op =
    Format.printf "  %s %s lock_motor -> %a@." subject (Policy.Ir.op_name op)
      Policy.Engine.pp_outcome
      (Policy.Engine.decide engine (request subject op))
  in
  print_endline "\nDecisions:";
  show "ble" Policy.Ir.Read;
  show "ble" Policy.Ir.Write;
  (* the replay attack: blocked by least privilege *)
  show "keypad" Policy.Ir.Read;

  (* residual risk: which threats can't be stopped by R/W alone? *)
  (match report.Secpol.Pipeline.residual with
  | [] -> print_endline "\nNo residual risk: every attack operation is excluded."
  | residual ->
      Format.printf "\nResidual risk (needs behavioural policies): %s@."
        (String.concat ", "
           (List.map (fun (t : Threat.Threat.t) -> t.id) residual)));

  (* 4. Post-deployment: install the policy, then ship an update for a
        newly discovered threat. *)
  let store = Policy.Update.create () in
  (match Secpol.Pipeline.deploy store report with
  | Ok () -> print_endline "\nInstalled policy v1 on the device."
  | Error e -> failwith e);
  let new_threat =
    Threat.Threat.make ~id:"keypad_brute_force"
      ~title:"Keypad brute-force unlock" ~asset:"lock_motor"
      ~entry_points:[ "keypad" ]
      ~stride:(ok (Threat.Stride.of_string "SE"))
      ~dread:(ok (Threat.Dread.of_list [ 7; 9; 4; 6; 8 ]))
      ~attack_operation:Threat.Threat.Write
      ~legitimate_operations:[ Threat.Threat.Read ] ()
  in
  match
    Secpol.Pipeline.respond_to_new_threat ~store ~model ~threat:new_threat
      ~at:86_400.0
  with
  | Ok r2 ->
      Format.printf
        "New threat %s countered by policy v%d — an update, not a redesign.@."
        new_threat.Threat.Threat.id r2.Secpol.Pipeline.bundle.Policy.Update.version;
      print_endline "Diff against v1:";
      Format.printf "%a@." Policy.Verify.pp_diff_report
        (Policy.Verify.diff report.Secpol.Pipeline.db r2.Secpol.Pipeline.db)
  | Error es -> failwith (String.concat "; " es)
