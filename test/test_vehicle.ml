(* Tests for the connected-car case study, including the Table-I
   reproduction checks: recomputed DREAD averages and re-derived policy
   cells must match the paper. *)

module V = Secpol_vehicle
module Modes = V.Modes
module State = V.State
module Names = V.Names
module Messages = V.Messages
module Policy_map = V.Policy_map
module Catalog = V.Threat_catalog
module Car = V.Car
module Os = V.Infotainment_os
module Threat = Secpol_threat.Threat
module Dread = Secpol_threat.Dread
module Model = Secpol_threat.Model
module Derive = Secpol_policy.Derive
module Lint = Secpol_policy.Lint
module Compile = Secpol_policy.Compile
module PEngine = Secpol_policy.Engine
module Node = Secpol_can.Node

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

(* ---------- Names and modes ---------- *)

let test_modes () =
  check Alcotest.int "three modes" 3 (List.length Modes.all);
  List.iter
    (fun m ->
      check
        Alcotest.(option string)
        "name round trip"
        (Some (Modes.name m))
        (Option.map Modes.name (Modes.of_name (Modes.name m))))
    Modes.all;
  Alcotest.(check bool) "unknown" true (Modes.of_name "turbo" = None)

let test_names_bijection () =
  check Alcotest.int "eight nodes" 8 (List.length Names.nodes);
  check Alcotest.int "eight assets" 8 (List.length Names.assets);
  List.iter
    (fun node ->
      check Alcotest.string "asset/node round trip" node
        (Names.node_of_asset (Names.asset_of_node node)))
    Names.nodes

let test_entry_point_mapping () =
  List.iter
    (fun ep ->
      let nodes = Names.nodes_of_entry_point ep in
      Alcotest.(check bool) "non-empty" true (nodes <> []);
      List.iter
        (fun n -> Alcotest.(check bool) "known node" true (List.mem n Names.nodes))
        nodes)
    Names.entry_points;
  check Alcotest.int "any_node covers all" 8
    (List.length (Names.nodes_of_entry_point Names.ep_any_node))

(* ---------- Message map ---------- *)

let test_messages_validate () =
  Alcotest.(check (list string)) "consistent" [] (Messages.validate ())

let test_messages_lookup () =
  (match Messages.find Messages.ecu_command with
  | Some m ->
      check Alcotest.string "name" "ecu_command" m.Messages.name;
      Alcotest.(check bool) "safety produces" true
        (List.mem Names.safety m.Messages.producers);
      Alcotest.(check bool) "infotainment does not" false
        (List.mem Names.infotainment m.Messages.producers)
  | None -> Alcotest.fail "ecu_command missing");
  Alcotest.(check bool) "unknown id" true (Messages.find 0x7FE = None)

let test_messages_produced_consumed () =
  let produced = Messages.produced_by Names.sensors in
  Alcotest.(check bool) "sensors produce telemetry" true
    (List.exists (fun (m : Messages.t) -> m.id = Messages.brake_status) produced);
  let consumed = Messages.consumed_by Names.ev_ecu in
  Alcotest.(check bool) "ecu consumes its command" true
    (List.exists (fun (m : Messages.t) -> m.id = Messages.ecu_command) consumed)

let test_messages_priority_structure () =
  (* safety-critical messages must win arbitration against telemetry *)
  Alcotest.(check bool) "airbag beats telemetry" true
    (Messages.airbag_deploy < Messages.brake_status);
  Alcotest.(check bool) "failsafe beats commands" true
    (Messages.failsafe_enter < Messages.ecu_command)

(* ---------- Policies ---------- *)

let test_baseline_compiles_cleanly () =
  let p = Policy_map.baseline () in
  let db =
    Compile.compile_exn
      ~known_modes:(List.map Modes.name Modes.all)
      ~known_assets:Names.assets ~known_subjects:Names.assets p
  in
  Alcotest.(check bool) "default deny" true (db.Secpol_policy.Ir.default = Secpol_policy.Ast.Deny);
  check Alcotest.int "no conflicts" 0
    (List.length
       (Lint.run ~passes:[ Lint.conflict_pass ] Lint.default_config db));
  Alcotest.(check bool) "plenty of rules" true
    (List.length db.Secpol_policy.Ir.rules > 20)

let test_baseline_least_privilege () =
  let e = Policy_map.engine (Policy_map.baseline ()) in
  let req subject op msg_id asset =
    {
      Secpol_policy.Ir.mode = "normal";
      subject;
      asset;
      op;
      msg_id = Some msg_id;
    }
  in
  (* designed producer may write *)
  Alcotest.(check bool) "safety writes ecu_command" true
    (PEngine.permitted e
       (req Names.asset_safety_critical Secpol_policy.Ir.Write
          Messages.ecu_command Names.ev_ecu));
  (* non-producer may not *)
  Alcotest.(check bool) "infotainment cannot write ecu_command" false
    (PEngine.permitted e
       (req Names.infotainment Secpol_policy.Ir.Write Messages.ecu_command
          Names.ev_ecu));
  (* designed consumer may read *)
  Alcotest.(check bool) "ev_ecu reads brake_status" true
    (PEngine.permitted e
       (req Names.ev_ecu Secpol_policy.Ir.Read Messages.brake_status
          Names.sensors));
  (* diag traffic only in remote_diagnostic mode *)
  Alcotest.(check bool) "diag denied in normal" false
    (PEngine.permitted e
       (req Names.asset_connectivity Secpol_policy.Ir.Write
          Messages.diag_request Names.asset_safety_critical));
  Alcotest.(check bool) "diag allowed in remote_diagnostic" true
    (PEngine.permitted e
       {
         (req Names.asset_connectivity Secpol_policy.Ir.Write
            Messages.diag_request Names.asset_safety_critical)
         with
         mode = "remote_diagnostic";
       })

let test_permissive_allows_everything () =
  let e = Policy_map.engine (Policy_map.permissive ()) in
  Alcotest.(check bool) "anything goes" true
    (PEngine.permitted e
       {
         Secpol_policy.Ir.mode = "normal";
         subject = "anyone";
         asset = Names.ev_ecu;
         op = Secpol_policy.Ir.Write;
         msg_id = Some Messages.ecu_command;
       })

let test_hpe_config_for_nodes () =
  let configs =
    Policy_map.hpe_configs
      (PEngine.table (Policy_map.engine (Policy_map.baseline ())))
      Modes.Normal
  in
  Alcotest.(check (list string)) "every node, in order" Names.nodes
    (List.map fst configs);
  let cfg_inf = List.assoc Names.infotainment configs in
  Alcotest.(check bool) "infotainment cannot write commands" false
    (List.mem Messages.ecu_command cfg_inf.Secpol_hpe.Config.write_ids);
  Alcotest.(check bool) "infotainment reads telemetry" true
    (List.mem Messages.accel_status cfg_inf.Secpol_hpe.Config.read_ids);
  let cfg_safety = List.assoc Names.safety configs in
  Alcotest.(check bool) "safety writes ecu_command" true
    (List.mem Messages.ecu_command cfg_safety.Secpol_hpe.Config.write_ids);
  let cfg_sensors = List.assoc Names.sensors configs in
  Alcotest.(check bool) "sensors write their telemetry" true
    (List.mem Messages.brake_status cfg_sensors.Secpol_hpe.Config.write_ids);
  Alcotest.(check bool) "sensors cannot write engine_command" false
    (List.mem Messages.engine_command cfg_sensors.Secpol_hpe.Config.write_ids)

(* Every node's config in every mode, own_ids included, one line each.
   The digests were recorded from a per-node derivation that decided each
   binding on a private engine and scanned every rule for each write
   rate; the static pass must reproduce them exactly.  Hardened's digest
   was re-recorded when the per-ID write rates became budget chains: its
   dump changed only in how the lock command's budget renders.  A failing
   run prints the dump to its log. *)
let test_hpe_configs_pinned () =
  let hex ids = String.concat "," (List.map (Printf.sprintf "0x%x") ids) in
  List.iter
    (fun (name, policy, digest) ->
      let table = PEngine.table (Policy_map.engine policy) in
      let dump =
        String.concat ""
          (List.concat_map
             (fun mode ->
               List.map
                 (fun (node, (c : Secpol_hpe.Config.t)) ->
                   Format.asprintf "%s %s %a own:{%s}\n" (Modes.name mode) node
                     Secpol_hpe.Config.pp c (hex c.own_ids))
                 (Policy_map.hpe_configs table mode))
             Modes.all)
      in
      print_string dump;
      check Alcotest.string (name ^ " configs") digest
        (Digest.to_hex (Digest.string dump)))
    [
      ("baseline", Policy_map.baseline (), "226fb07890755d82182a72d0a12f9ae1");
      ("hardened", Policy_map.hardened (), "654db49ea947898b115db03695e79164");
      ( "permissive",
        Policy_map.permissive (),
        "0b5659d9d1d386173eb6efbd807d1dde" );
    ]

let test_hardened_situational_and_behavioural () =
  let e = Policy_map.engine (Policy_map.hardened ()) in
  let lock_write mode =
    {
      Secpol_policy.Ir.mode;
      subject = Names.asset_connectivity;
      asset = Names.door_locks;
      op = Secpol_policy.Ir.Write;
      msg_id = Some Messages.lock_command;
    }
  in
  (* situational: remote locking works in normal mode, is denied in
     fail-safe (row 14's attack window) *)
  Alcotest.(check bool) "normal-mode remote lock works" true
    (PEngine.permitted ~now:0.0 e (lock_write "normal"));
  Alcotest.(check bool) "fail-safe relock denied" false
    (PEngine.permitted ~now:1.0 e (lock_write "fail_safe"));
  (* behavioural: the third lock command within 10 s is refused *)
  Alcotest.(check bool) "second within budget" true
    (PEngine.permitted ~now:2.0 e (lock_write "normal"));
  Alcotest.(check bool) "third exceeds the budget" false
    (PEngine.permitted ~now:3.0 e (lock_write "normal"));
  Alcotest.(check bool) "budget recovers" true
    (PEngine.permitted ~now:20.0 e (lock_write "normal"))

let test_hardened_closes_row14_on_car () =
  (* the accident-relock attack (Table I row 14) is residual under the
     baseline policy but closed by the situational update *)
  let run policy =
    let car = Car.create ~enforcement:(Car.Hpe policy) () in
    Car.run car ~seconds:0.3;
    V.Safety.trigger_crash (Car.node car Names.safety) car.Car.state;
    Car.run car ~seconds:0.1;
    let node = Car.node car Names.telematics in
    Secpol_can.Controller.set_filters (Node.controller node) [];
    let _ =
      Node.send node
        (Secpol_can.Frame.data_std Messages.lock_command
           (String.make 1 Messages.cmd_lock))
    in
    Car.run car ~seconds:0.3;
    car.Car.state.State.doors_locked
  in
  Alcotest.(check bool) "baseline: occupants trapped (residual)" true
    (run (Policy_map.baseline ()));
  Alcotest.(check bool) "hardened: rescue access preserved" false
    (run (Policy_map.hardened ()))

let test_hardened_benign_unharmed () =
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.hardened ())) () in
  Car.run car ~seconds:2.0;
  check Alcotest.int "no false blocks" 0 (Car.false_hpe_blocks car);
  (* remote lock/unlock still works within the behavioural budget *)
  ignore (V.Telematics.remote_unlock (Car.node car Names.telematics));
  Car.run car ~seconds:0.2;
  Alcotest.(check bool) "unlocked" false car.Car.state.State.doors_locked

(* ---------- Table I reproduction (experiment T1) ---------- *)

let test_table1_sixteen_rows () =
  check Alcotest.int "sixteen threats" 16 (List.length Catalog.rows)

let test_table1_dread_averages_match_paper () =
  List.iter
    (fun (row : Catalog.row) ->
      let recomputed = Dread.average row.threat.Threat.dread in
      check
        Alcotest.(float 1e-9)
        (row.threat.Threat.id ^ " average")
        row.paper_average recomputed)
    Catalog.rows

let test_table1_policy_column_matches_derivation () =
  List.iter
    (fun (row : Catalog.row) ->
      match Derive.row_access row.threat with
      | Some derived ->
          check Alcotest.string
            (row.threat.Threat.id ^ " policy cell")
            (Derive.access_name row.paper_policy)
            (Derive.access_name derived)
      | None -> Alcotest.fail (row.threat.Threat.id ^ ": no access derived"))
    Catalog.rows

let test_table1_residual_rows () =
  let residual_ids =
    Catalog.rows
    |> List.filter (fun (r : Catalog.row) -> Threat.residual_risk r.threat)
    |> List.map (fun (r : Catalog.row) -> r.threat.Threat.id)
  in
  Alcotest.(check (list string))
    "exactly the W/RW rows carry residual risk"
    [
      Catalog.ev_ecu_tracking_disable;
      Catalog.connectivity_modem_disable_emergency;
      Catalog.door_lock_in_accident;
      Catalog.safety_alarm_disable;
    ]
    residual_ids

let test_table1_residual_iff_not_r () =
  List.iter
    (fun (row : Catalog.row) ->
      let residual = Threat.residual_risk row.threat in
      let is_r = row.paper_policy = Derive.R in
      Alcotest.(check bool)
        (row.threat.Threat.id ^ " residual iff not R")
        (not is_r) residual)
    Catalog.rows

let test_table1_model_validates () =
  let m = Catalog.model () in
  check Alcotest.int "16 threats" 16 (List.length m.Model.threats);
  check Alcotest.int "8 assets" 8 (List.length m.Model.assets);
  check Alcotest.(float 0.0) "full countermeasure coverage" 1.0 (Model.coverage m)

(* the obligations map the threats alone; they must equal those read off
   the whole validated model *)
let test_table1_obligations_match_model () =
  let expect =
    Secpol_threat.Obligation.of_model
      ~subjects_of_entry_point:(fun ep ->
        List.map Names.asset_of_node (Names.nodes_of_entry_point ep))
      (Catalog.model ())
  in
  check Alcotest.int "16 obligations" 16 (List.length expect);
  Alcotest.(check bool) "obligations () = of_model (model ())" true
    (Catalog.obligations () = expect)

let test_table1_stride_strings () =
  let expect =
    [
      ("ev_ecu_spoof_disable_locks", "STD");
      ("ev_ecu_tracking_disable", "SD");
      ("connectivity_component_modification", "STIDE");
      ("connectivity_firmware_privacy", "TIE");
      ("infotainment_status_modification", "STR");
      ("safety_alarm_disable", "TE");
    ]
  in
  List.iter
    (fun (id, stride) ->
      match Catalog.find id with
      | Some row ->
          check Alcotest.string (id ^ " stride") stride
            (Secpol_threat.Stride.to_string row.threat.Threat.stride)
      | None -> Alcotest.fail ("missing row " ^ id))
    expect

let test_table1_model_roundtrips_through_format () =
  (* the whole sixteen-row model survives textual export/import *)
  let m = Catalog.model () in
  match
    Secpol_threat.Model_format.parse (Secpol_threat.Model_format.print m)
  with
  | Error e -> Alcotest.fail e
  | Ok m' ->
      Alcotest.(check bool) "threats equal" true
        (m.Model.threats = m'.Model.threats);
      Alcotest.(check bool) "assets equal" true (m.Model.assets = m'.Model.assets);
      Alcotest.(check bool) "entry points equal" true
        (m.Model.entry_points = m'.Model.entry_points);
      Alcotest.(check (list string)) "modes equal" m.Model.modes m'.Model.modes

let test_table1_highest_risk_is_door_lock_in_accident () =
  (* 6.8 is the table's maximum *)
  match Secpol_threat.Risk.rank Catalog.threats with
  | top :: _ ->
      check Alcotest.string "top risk" Catalog.door_lock_in_accident
        top.Threat.id
  | [] -> Alcotest.fail "no threats"

(* ---------- Car simulation ---------- *)

let test_car_benign_traffic () =
  let car = Car.create () in
  Car.run car ~seconds:2.0;
  Alcotest.(check bool) "deliveries happened" true (Car.total_deliveries car > 100);
  let s = car.Car.state in
  Alcotest.(check bool) "ecu healthy" true s.State.ev_ecu_enabled;
  Alcotest.(check bool) "engine running" true s.State.engine_running;
  Alcotest.(check bool) "doors locked" true s.State.doors_locked;
  Alcotest.(check bool) "modem up" true s.State.modem_enabled

(* Deliveries to designed consumers only: nodes that consume nothing have an
   empty acceptance bank, which a CAN controller treats as accept-all, so
   raw delivery totals over-count under software filters. *)
let designed_deliveries car =
  Secpol_can.Trace.count (Car.trace car) (fun e ->
      match e.Secpol_can.Trace.event with
      | Secpol_can.Trace.Rx_delivered receiver -> (
          match e.Secpol_can.Trace.frame.Secpol_can.Frame.id with
          | Secpol_can.Identifier.Standard id -> (
              match Messages.find id with
              | Some m -> List.mem receiver m.Messages.consumers
              | None -> false)
          | Secpol_can.Identifier.Extended _ -> false)
      | _ -> false)

let test_car_hpe_no_false_blocks () =
  let baseline = Car.create ~enforcement:Car.Software_filters () in
  Car.run baseline ~seconds:2.0;
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.baseline ())) () in
  Car.run car ~seconds:2.0;
  check Alcotest.int "zero false blocks on clean traffic" 0
    (Car.false_hpe_blocks car);
  (* every designed delivery still happens *)
  check Alcotest.int "designed deliveries match the software-filter baseline"
    (designed_deliveries baseline)
    (designed_deliveries car)

let test_car_crash_chain () =
  let car = Car.create () in
  Car.run car ~seconds:0.5;
  V.Safety.trigger_crash (Car.node car Names.safety) car.Car.state;
  Car.run car ~seconds:0.5;
  let s = car.Car.state in
  Alcotest.(check bool) "failsafe latched" true s.State.failsafe_latched;
  Alcotest.(check bool) "doors unlocked for rescue" false s.State.doors_locked;
  Alcotest.(check bool) "propulsion cut" false s.State.ev_ecu_enabled;
  check Alcotest.int "emergency call placed" 1 s.State.emergency_calls

let test_car_remote_lock_unlock () =
  let car = Car.create ~driving:false () in
  Car.run car ~seconds:0.2;
  ignore (V.Telematics.remote_lock (Car.node car Names.telematics));
  Car.run car ~seconds:0.2;
  Alcotest.(check bool) "locked" true car.Car.state.State.doors_locked;
  ignore (V.Telematics.remote_unlock (Car.node car Names.telematics));
  Car.run car ~seconds:0.2;
  Alcotest.(check bool) "unlocked" false car.Car.state.State.doors_locked

let test_car_alarm_immobilises () =
  let car = Car.create ~driving:false () in
  Car.run car ~seconds:0.2;
  V.Safety.arm_alarm (Car.node car Names.safety) car.Car.state;
  Car.run car ~seconds:0.2;
  Alcotest.(check bool) "armed" true car.Car.state.State.alarm_armed;
  Alcotest.(check bool) "immobilised" false car.Car.state.State.ev_ecu_enabled;
  V.Safety.disarm_alarm (Car.node car Names.safety) car.Car.state;
  Car.run car ~seconds:0.2;
  Alcotest.(check bool) "mobile again" true car.Car.state.State.ev_ecu_enabled

let test_car_mode_switch_reprovisions () =
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.baseline ())) () in
  Car.run car ~seconds:0.2;
  Car.set_mode car Modes.Remote_diagnostic;
  (match Car.hpe car Names.telematics with
  | Some hpe ->
      Alcotest.(check bool) "still locked after reprovision" true
        (Secpol_hpe.Engine.locked hpe)
  | None -> Alcotest.fail "no hpe on telematics");
  (* diag request is writable by telematics only in remote_diagnostic mode *)
  Alcotest.(check bool) "diag write passes now" true
    (Node.send (Car.node car Names.telematics)
       (Secpol_can.Frame.data_std Messages.diag_request "\x01"));
  Car.set_mode car Modes.Normal;
  Alcotest.(check bool) "diag write refused in normal" false
    (Node.send (Car.node car Names.telematics)
       (Secpol_can.Frame.data_std Messages.diag_request "\x01"))

let test_car_diagnostic_session () =
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.baseline ())) ~driving:false () in
  Car.run car ~seconds:0.2;
  let telematics = Car.node car Names.telematics in
  let responses () =
    List.length
      (List.filter
         (fun (f : Secpol_can.Frame.t) ->
           Secpol_can.Identifier.raw f.id = Messages.diag_response)
         (Node.received telematics))
  in
  (* in normal mode the request never reaches the bus *)
  Alcotest.(check bool) "request refused in normal mode" false
    (V.Telematics.request_diagnostics telematics);
  (* switch to remote diagnostics: request goes out, five ECUs answer *)
  Car.set_mode car Modes.Remote_diagnostic;
  Alcotest.(check bool) "request accepted in RD mode" true
    (V.Telematics.request_diagnostics telematics);
  Car.run car ~seconds:0.2;
  check Alcotest.int "five ECUs respond" 5 (responses ());
  (* back in normal mode the ECUs stay silent even to a forged request *)
  Car.set_mode car Modes.Normal;
  let before = responses () in
  let atk_node = Car.node car Names.sensors in
  Secpol_can.Controller.set_filters (Node.controller atk_node) [];
  ignore
    (Node.send atk_node (Secpol_can.Frame.data_std Messages.diag_request "\x01"));
  Car.run car ~seconds:0.2;
  check Alcotest.int "no responses in normal mode" before (responses ())

let test_car_display_mirrors_speed () =
  let car = Car.create () in
  Car.run car ~seconds:1.0;
  match V.Infotainment.displayed_speed (Car.node car Names.infotainment) with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "display never updated"

(* ---------- ECU helpers ---------- *)

let test_ecu_frame_padding () =
  let m = Messages.find_exn Messages.ecu_status in
  (* ecu_status has dlc 4: short payloads pad, long ones truncate *)
  let short = V.Ecu.frame_of m "\x01" in
  check Alcotest.int "padded" 4 short.Secpol_can.Frame.dlc;
  check Alcotest.string "zero padding" "\x01\x00\x00\x00"
    short.Secpol_can.Frame.payload;
  let long = V.Ecu.frame_of m "\x01\x02\x03\x04\x05\x06" in
  check Alcotest.string "truncated" "\x01\x02\x03\x04"
    long.Secpol_can.Frame.payload

let test_ecu_command_helpers () =
  let m = Messages.find_exn Messages.ecu_command in
  let f = V.Ecu.command_frame m Messages.cmd_disable in
  Alcotest.(check (option char)) "command byte" (Some Messages.cmd_disable)
    (V.Ecu.command f);
  let empty = Secpol_can.Frame.data_std 0x100 "" in
  Alcotest.(check (option char)) "empty payload" None (V.Ecu.command empty)

let test_names_invalid_inputs () =
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Names.asset_of_node: unknown node \"toaster\"")
    (fun () -> ignore (Names.asset_of_node "toaster"));
  Alcotest.check_raises "unknown entry point"
    (Invalid_argument "Names.nodes_of_entry_point: unknown \"ep_toaster\"")
    (fun () -> ignore (Names.nodes_of_entry_point "ep_toaster"))

let test_pp_smoke () =
  (* the report/matrix printers must render the full model without raising *)
  let m = Catalog.model () in
  let report = Format.asprintf "%a" Model.pp_report m in
  Alcotest.(check bool) "report mentions the use case" true
    (String.length report > 500);
  let state = Format.asprintf "%a" State.pp (State.driving ()) in
  Alcotest.(check bool) "state renders" true (String.length state > 20)

(* ---------- Intrusion detection ---------- *)

module Ids = V.Ids

let kind_is name (i : Ids.incident) = Ids.kind_name i.Ids.kind = name

let test_ids_quiet_on_benign_traffic () =
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.baseline ())) () in
  let ids = Ids.create car in
  Car.run car ~seconds:2.0;
  Alcotest.(check (list string)) "no incidents" []
    (List.map (fun (i : Ids.incident) -> Ids.kind_name i.Ids.kind) (Ids.scan ids))

let test_ids_flags_unapproved_source () =
  let car = Car.create () in
  let ids = Ids.create car in
  Car.run car ~seconds:0.5;
  ignore (Ids.scan ids);
  let node = Car.node car Names.infotainment in
  Secpol_can.Controller.set_filters (Node.controller node) [];
  ignore
    (Node.send node
       (Secpol_can.Frame.data_std Messages.ecu_command
          (String.make 1 Messages.cmd_disable)));
  Car.run car ~seconds:0.2;
  let fresh = Ids.scan ids in
  Alcotest.(check bool) "unapproved source raised" true
    (List.exists (kind_is "unapproved-source") fresh)

let test_ids_flags_unknown_id_and_flood () =
  let car = Car.create () in
  let ids = Ids.create car in
  Car.run car ~seconds:0.5;
  ignore (Ids.scan ids);
  let alien = Node.create ~name:"alien" car.Car.bus in
  ignore (Node.send alien (Secpol_can.Frame.data_std 0x7F0 ""));
  for _ = 1 to 200 do
    ignore (Node.send alien (Secpol_can.Frame.data_std Messages.brake_status "\x00\x00"))
  done;
  Car.run car ~seconds:0.5;
  let fresh = Ids.scan ids in
  Alcotest.(check bool) "unknown id raised" true
    (List.exists (kind_is "unknown-id") fresh);
  Alcotest.(check bool) "flood raised" true
    (List.exists (kind_is "flood") fresh)

let test_ids_uses_hpe_signals () =
  let car = Car.create ~enforcement:(Car.Hpe (Policy_map.baseline ())) () in
  let ids = Ids.create car in
  Car.run car ~seconds:0.5;
  ignore (Ids.scan ids);
  (* compromised node tries to transmit outside policy: write blocks *)
  let node = Car.node car Names.infotainment in
  ignore
    (Node.send node
       (Secpol_can.Frame.data_std Messages.ecu_command
          (String.make 1 Messages.cmd_disable)));
  (* alien impersonates the sensors: spoof alerts *)
  let alien = Node.create ~name:"alien" car.Car.bus in
  ignore (Node.send alien (Secpol_can.Frame.data_std Messages.brake_status "\x00\x00"));
  Car.run car ~seconds:0.2;
  let fresh = Ids.scan ids in
  Alcotest.(check bool) "policy violation raised" true
    (List.exists (kind_is "policy-violation") fresh);
  Alcotest.(check bool) "impersonation raised" true
    (List.exists (kind_is "impersonation") fresh);
  (* incremental: a second scan with no new activity is silent *)
  Alcotest.(check (list string)) "second scan quiet" []
    (List.map (fun (i : Ids.incident) -> Ids.kind_name i.Ids.kind) (Ids.scan ids));
  Alcotest.(check bool) "history retained" true (List.length (Ids.incidents ids) >= 2)

(* ---------- Two-segment (gateway) topology ---------- *)

(* The guideline architecture: the two-segment car with its gateway's
   policy-derived whitelists and no HPEs. *)
module Tcar = V.Topology_car

let segmented () =
  Tcar.create ~placement:`Central ~spec:(V.Segment_map.two_segment_spec ()) ()

let gateway car = Secpol_can.Topology.gateway (Tcar.topology car) "gateway"

let test_segmented_benign_function () =
  let car = segmented () in
  Tcar.run car ~seconds:1.0;
  (* cross-segment telemetry still reaches the driver display *)
  (match V.Infotainment.displayed_speed (Tcar.node car Names.infotainment) with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "telemetry never crossed the gateway");
  (* the crash chain spans both segments: safety (powertrain) unlocks the
     doors (comfort) and the telematics unit places the call *)
  V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car);
  Tcar.run car ~seconds:0.5;
  Alcotest.(check bool) "doors unlocked across segments" false
    (Tcar.state car).State.doors_locked;
  check Alcotest.int "emergency call placed" 1
    (Tcar.state car).State.emergency_calls

let test_segmented_blocks_non_crossing_injection () =
  (* eps_command never legitimately crosses: the gateway drops it *)
  let car = segmented () in
  Tcar.run car ~seconds:0.3;
  let infotainment = Tcar.node car Names.infotainment in
  Secpol_can.Controller.set_filters (Node.controller infotainment) [];
  ignore
    (Node.send infotainment
       (Secpol_can.Frame.data_std Messages.eps_command
          (String.make 1 Messages.cmd_disable)));
  Tcar.run car ~seconds:0.3;
  Alcotest.(check bool) "eps survives" true (Tcar.state car).State.eps_active;
  Alcotest.(check bool) "gateway dropped something" true
    (Secpol_can.Gateway.dropped (gateway car) > 0)

let test_segmented_residual_crossing_injection () =
  (* ecu_command legitimately crosses (door_locks -> ev_ecu), so the
     ID-granular gateway forwards the forged copy too — the weakness the
     per-node HPE does not have *)
  let car = segmented () in
  Tcar.run car ~seconds:0.3;
  let infotainment = Tcar.node car Names.infotainment in
  Secpol_can.Controller.set_filters (Node.controller infotainment) [];
  ignore
    (Node.send infotainment
       (Secpol_can.Frame.data_std Messages.ecu_command
          (String.make 1 Messages.cmd_disable)));
  Tcar.run car ~seconds:0.3;
  Alcotest.(check bool) "gateway forwards the forged crossing ID" false
    (Tcar.state car).State.ev_ecu_enabled

let test_segmented_whitelist_is_minimal () =
  let topo = Tcar.topology (segmented ()) in
  let ids =
    Secpol_can.Topology.crossing_ids topo ~gateway:"gateway" `A_to_b
    @ Secpol_can.Topology.crossing_ids topo ~gateway:"gateway" `B_to_a
  in
  Alcotest.(check bool) "ecu_command crosses" true
    (List.mem Messages.ecu_command ids);
  Alcotest.(check bool) "eps_command does not" false
    (List.mem Messages.eps_command ids);
  Alcotest.(check bool) "engine_command does not" false
    (List.mem Messages.engine_command ids)

(* ---------- Infotainment OS ---------- *)

let make_os ?hardened () =
  let car = Car.create () in
  Car.run car ~seconds:0.1;
  (car, Os.create_exn ?hardened car.Car.state (Car.node car Names.infotainment))

let test_os_browse_allowed_everywhere () =
  let _, os = make_os () in
  Alcotest.(check bool) "v1 browse" true (Os.browse os);
  let _, os2 = make_os ~hardened:true () in
  Alcotest.(check bool) "v2 browse" true (Os.browse os2)

let test_os_escalation_chain_v1 () =
  let car, os = make_os () in
  match Os.exploit_browser os with
  | Error e -> Alcotest.fail ("factory policy should allow the chain: " ^ e)
  | Ok installer ->
      Alcotest.(check bool) "install works" true
        (Os.install_package os ~as_:installer);
      check Alcotest.int "install counted" 1
        car.Car.state.State.software_installs;
      Alcotest.(check bool) "CAN write allowed by sloppy policy" true
        (Os.send_can os ~as_:installer
           (Secpol_can.Frame.data_std Messages.media_status "\x01"))

let test_os_escalation_blocked_v2 () =
  let _, os = make_os ~hardened:true () in
  (match Os.exploit_browser os with
  | Ok _ -> Alcotest.fail "hardened policy allowed the transition"
  | Error _ -> ());
  Alcotest.(check bool) "denials audited" true (Os.denial_count os > 0)

let test_os_runtime_hardening () =
  let _, os = make_os () in
  (match Os.exploit_browser os with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Os.apply_hardening os with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  match Os.exploit_browser os with
  | Ok _ -> Alcotest.fail "escalation survived the policy update"
  | Error _ -> ()

(* ---------- One image per policy ---------- *)

module Table = Secpol_policy.Table
module Hpe = Secpol_hpe

let engine_of car =
  match car.Car.policy_engine with
  | Some e -> e
  | None -> Alcotest.fail "HPE car without a policy engine"

let test_image_shared_by_value () =
  let car p = engine_of (Car.create ~enforcement:(Car.Hpe p) ()) in
  let p = Policy_map.baseline () in
  let a = car p in
  let b = car p in
  Alcotest.(check bool) "one value, one table" true
    (PEngine.table a == PEngine.table b);
  let copy = car (Policy_map.baseline ()) in
  Alcotest.(check bool) "an equal copy, its own table" false
    (PEngine.table copy == PEngine.table a);
  let c = car (Policy_map.hardened ()) in
  let b' = car p in
  Alcotest.(check bool) "another policy in between, its own table" false
    (PEngine.table c == PEngine.table a || PEngine.table c == PEngine.table b')

(* Two hardened cars from one value share a table and nothing mutable:
   one car's engine and HPE budgets, and its stall flag, are its own. *)
let test_image_cars_isolated () =
  let p = Policy_map.hardened () in
  let a = Car.create ~enforcement:(Car.Hpe p) () in
  let b = Car.create ~enforcement:(Car.Hpe p) () in
  let lock_write =
    {
      Secpol_policy.Ir.mode = Modes.name Modes.Normal;
      subject = Names.asset_connectivity;
      asset = Names.door_locks;
      op = Secpol_policy.Ir.Write;
      msg_id = Some Messages.lock_command;
    }
  in
  let grants car =
    List.length
      (List.filter
         (fun now -> PEngine.permitted ~now (engine_of car) lock_write)
         [ 1.0; 2.0; 3.0 ])
  in
  let hpe_grants car =
    match Car.hpe car Names.telematics with
    | None -> Alcotest.fail "no HPE on telematics"
    | Some hpe ->
        List.length
          (List.filter
             (fun now ->
               Hpe.Engine.gate_tx hpe ~now
                 (Secpol_can.Frame.data_std Messages.lock_command "\x01"))
             [ 1.0; 2.0; 3.0 ])
  in
  check Alcotest.int "car A's engine spends its budget" 2 (grants a);
  check Alcotest.int "car A's HPE spends its budget" 2 (hpe_grants a);
  check Alcotest.int "car B's engine still grants 2" 2 (grants b);
  check Alcotest.int "car B's HPE still grants 2" 2 (hpe_grants b);
  PEngine.set_stalled (engine_of a) true;
  Alcotest.(check bool) "car A's engine stalled" true
    (match PEngine.decide (engine_of a) lock_write with
    | _ -> false
    | exception PEngine.Unavailable -> true);
  Alcotest.(check bool) "car B's engine still answers" true
    (match PEngine.decide ~now:20.0 (engine_of b) lock_write with
    | _ -> true
    | exception PEngine.Unavailable -> false)

(* What a car's HPEs hold in its current mode, by node name: read list,
   write list and budget table. *)
let provisioned car =
  let ids l =
    List.sort_uniq compare
      (List.map Secpol_can.Identifier.raw (Hpe.Approved_list.to_ids l))
  in
  List.sort compare
    (List.map
       (fun (node, hpe) ->
         let regs = Hpe.Engine.registers hpe in
         ( node,
           ( ids (Hpe.Registers.read_list regs),
             ids (Hpe.Registers.write_list regs),
             Hpe.Registers.budgets regs ) ))
       (Tcar.hpes car))

(* Configs in the shape [provisioned] reads. *)
let shape configs =
  List.sort compare
    (List.map
       (fun (node, (c : Hpe.Config.t)) ->
         ( node,
           ( List.sort_uniq compare c.read_ids,
             List.sort_uniq compare c.write_ids,
             c.budgets ) ))
       configs)

(* ... and what they should hold: the configs of a table compiled afresh
   from the car's own policy, independent of any image *)
let expected policy mode =
  let table =
    Table.compile ~strategy:Table.Deny_overrides (Policy_map.compile policy)
  in
  shape (Policy_map.hpe_configs table mode)

(* A compromised sensors node, a designed brake_status writer, forges a
   crash-magnitude reading. *)
let forge_crash_reading car =
  ignore
    (Node.send (Tcar.node car Names.sensors)
       (Secpol_can.Frame.data_std Messages.brake_status
          (String.make 1 V.Sensors.crash_signal ^ "\000")))

let crash car =
  V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car)

(* A crash, and a forged crash reading, each take the car's one mode
   path: under the hardened policy every HPE then holds the car's
   Fail_safe configs, and the telematics HPE refuses a relock (Table I
   row 14's situational deny). *)
let test_crash_moves_every_hpe () =
  List.iter
    (fun (what, cause) ->
      let car =
        (Car.create ~enforcement:(Car.Hpe (Policy_map.hardened ())) ())
          .Car.topology_car
      in
      Tcar.run car ~seconds:0.3;
      cause car;
      Tcar.run car ~seconds:0.1;
      Alcotest.(check bool) (what ^ ": latched in fail-safe") true
        (Tcar.mode car = Modes.Fail_safe
        && (Tcar.state car).State.failsafe_latched);
      Alcotest.(check bool) (what ^ ": every HPE holds its Fail_safe configs")
        true
        (provisioned car = shape (Tcar.hpe_configs car Modes.Fail_safe));
      let telematics = Option.get (Tcar.hpe car Names.telematics) in
      Alcotest.(check bool) (what ^ ": telematics refuses 0x200") false
        (Hpe.Engine.gate_tx telematics
           ~now:(Secpol_sim.Engine.now (Tcar.sim car))
           (Secpol_can.Frame.data_std Messages.lock_command
              (String.make 1 Messages.cmd_lock))))
    [ ("crash", crash); ("forged crash reading", forge_crash_reading) ]

(* A seeded mutation, as test_campaign's: each allow becomes a deny with
   probability 1/5, or is rated at 1-3 grants a second with probability
   1/4. *)
let mutate rng (p : Secpol_policy.Ast.policy) =
  let module Ast = Secpol_policy.Ast in
  let rule (r : Ast.rule) =
    if r.Ast.decision <> Ast.Allow then r
    else
      let u = Secpol_sim.Rng.float rng 1.0 in
      if u < 0.2 then { r with Ast.decision = Ast.Deny; rate = None }
      else if u < 0.45 then
        let count = Secpol_sim.Rng.int_in rng 1 3 in
        { r with Ast.rate = Some (Ast.rate_limit ~count ~window_ms:1000) }
      else r
  in
  let block (b : Ast.asset_block) =
    { b with Ast.rules = List.map rule b.Ast.rules }
  in
  let section = function
    | Ast.Global b -> Ast.Global (block b)
    | Ast.Modes (modes, blocks) -> Ast.Modes (modes, List.map block blocks)
    | Ast.Default _ as s -> s
  in
  { p with Ast.sections = List.map section p.Ast.sections }

(* A seeded build sequence: 1-6 cars, each from a value of a small pool
   (baseline, hardened, permissive and two mutations) or from a fresh
   value, on the flat or the four-segment car.  Once every car is built,
   each is walked through every mode (set_mode, then enter_fail_safe)
   and its HPEs must hold exactly its own policy's configs.  Before the
   walk, and again once set back to Normal after it, each car crashes
   or a compromised sensors node forges a crash reading: a crash leaves
   it in Fail_safe, and its HPEs must hold the configs of the mode it is
   in (a mutation may deny the forged reading on its way). *)
let prop_image_per_car =
  QCheck.Test.make ~name:"every car's HPEs hold its own policy's configs"
    ~count:60 QCheck.int64
    (fun seed ->
      let rng = Secpol_sim.Rng.create seed in
      let fresh k =
        match k with
        | 0 -> Policy_map.baseline ()
        | 1 -> Policy_map.hardened ()
        | 2 -> Policy_map.permissive ()
        | 3 -> mutate rng (Policy_map.baseline ())
        | _ -> mutate rng (Policy_map.hardened ())
      in
      let pool = Array.init 5 fresh in
      let builds = Secpol_sim.Rng.int_in rng 1 6 in
      let cars =
        List.init builds (fun _ ->
            let k = Secpol_sim.Rng.int rng 5 in
            let policy =
              if Secpol_sim.Rng.bool rng then pool.(k) else fresh k
            in
            let spec =
              if Secpol_sim.Rng.bool rng then V.Segment_map.flat_spec ()
              else V.Segment_map.spec ()
            in
            (policy, Tcar.create ~policy ~spec ()))
      in
      let holds mode =
        List.for_all
          (fun (policy, car) -> provisioned car = expected policy mode)
          cars
      in
      let crash_all () =
        List.for_all
          (fun (policy, car) ->
            let crashed = Secpol_sim.Rng.bool rng in
            if crashed then crash car else forge_crash_reading car;
            Tcar.run car ~seconds:0.05;
            ((not crashed) || Tcar.mode car = Modes.Fail_safe)
            && provisioned car = expected policy (Tcar.mode car))
          cars
      in
      holds Modes.Normal
      && crash_all ()
      && List.for_all
           (fun mode ->
             List.iter (fun (_, car) -> Tcar.set_mode car mode) cars;
             holds mode)
           [ Modes.Remote_diagnostic; Modes.Normal; Modes.Fail_safe ]
      && begin
           List.iter
             (fun (_, car) ->
               Tcar.set_mode car Modes.Normal;
               Tcar.enter_fail_safe car ~reason:"test")
             cars;
           holds Modes.Fail_safe
         end
      && begin
           List.iter (fun (_, car) -> Tcar.set_mode car Modes.Normal) cars;
           crash_all ()
         end)

(* Two domains build 100 cars each, alternating two policy values, so
   the slot changes hands between and during builds. *)
let test_image_two_domains () =
  let base = Policy_map.baseline () and hard = Policy_map.hardened () in
  let want =
    List.map
      (fun p -> (p, List.map (fun m -> (m, expected p m)) Modes.all))
      [ base; hard ]
  in
  let build_and_check first () =
    let wrong = ref 0 in
    for i = 0 to 99 do
      let policy = if (i + first) mod 2 = 0 then base else hard in
      let car = Tcar.create ~policy ~spec:(V.Segment_map.flat_spec ()) () in
      let own = List.assq policy want in
      if provisioned car <> List.assoc Modes.Normal own then incr wrong;
      Tcar.enter_fail_safe car ~reason:"test";
      if provisioned car <> List.assoc Modes.Fail_safe own then incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn (build_and_check 1) in
  let here = build_and_check 0 () in
  check Alcotest.int "cars with another policy's lists" 0
    (here + Domain.join other)

let () =
  Alcotest.run "secpol_vehicle"
    [
      ( "naming",
        [
          quick "modes" test_modes;
          quick "node/asset bijection" test_names_bijection;
          quick "entry-point mapping" test_entry_point_mapping;
        ] );
      ( "messages",
        [
          quick "map validates" test_messages_validate;
          quick "lookup" test_messages_lookup;
          quick "produced/consumed" test_messages_produced_consumed;
          quick "priority structure" test_messages_priority_structure;
        ] );
      ( "policies",
        [
          quick "baseline compiles" test_baseline_compiles_cleanly;
          quick "least privilege" test_baseline_least_privilege;
          quick "permissive factory" test_permissive_allows_everything;
          quick "hpe configs" test_hpe_config_for_nodes;
          quick "hpe configs pinned" test_hpe_configs_pinned;
          quick "hardened: situational + behavioural"
            test_hardened_situational_and_behavioural;
          quick "hardened closes row 14" test_hardened_closes_row14_on_car;
          quick "hardened leaves benign traffic alone"
            test_hardened_benign_unharmed;
        ] );
      ( "image",
        [
          quick "one policy value, one table" test_image_shared_by_value;
          quick "cars keep their own budgets and stall"
            test_image_cars_isolated;
          QCheck_alcotest.to_alcotest prop_image_per_car;
          quick "two domains" test_image_two_domains;
          quick "a crash moves every HPE" test_crash_moves_every_hpe;
        ] );
      ( "table1",
        [
          quick "sixteen rows" test_table1_sixteen_rows;
          quick "DREAD averages match paper" test_table1_dread_averages_match_paper;
          quick "policy column matches derivation"
            test_table1_policy_column_matches_derivation;
          quick "residual rows" test_table1_residual_rows;
          quick "residual iff not R" test_table1_residual_iff_not_r;
          quick "model validates" test_table1_model_validates;
          quick "obligations match the model"
            test_table1_obligations_match_model;
          quick "stride strings" test_table1_stride_strings;
          quick "format round trip" test_table1_model_roundtrips_through_format;
          quick "highest risk row" test_table1_highest_risk_is_door_lock_in_accident;
        ] );
      ( "car",
        [
          quick "benign traffic" test_car_benign_traffic;
          quick "no false blocks under HPE" test_car_hpe_no_false_blocks;
          quick "crash chain" test_car_crash_chain;
          quick "remote lock/unlock" test_car_remote_lock_unlock;
          quick "alarm immobiliser" test_car_alarm_immobilises;
          quick "mode switch reprovisions" test_car_mode_switch_reprovisions;
          quick "diagnostic session" test_car_diagnostic_session;
          quick "display mirrors speed" test_car_display_mirrors_speed;
        ] );
      ( "helpers",
        [
          quick "frame padding" test_ecu_frame_padding;
          quick "command helpers" test_ecu_command_helpers;
          quick "invalid names" test_names_invalid_inputs;
          quick "printer smoke" test_pp_smoke;
        ] );
      ( "ids",
        [
          quick "quiet on benign traffic" test_ids_quiet_on_benign_traffic;
          quick "unapproved source" test_ids_flags_unapproved_source;
          quick "unknown id + flood" test_ids_flags_unknown_id_and_flood;
          quick "hpe signals" test_ids_uses_hpe_signals;
        ] );
      ( "segmented",
        [
          quick "benign function across segments" test_segmented_benign_function;
          quick "non-crossing injection blocked"
            test_segmented_blocks_non_crossing_injection;
          quick "crossing injection residual"
            test_segmented_residual_crossing_injection;
          quick "whitelist minimal" test_segmented_whitelist_is_minimal;
        ] );
      ( "infotainment-os",
        [
          quick "browsing allowed" test_os_browse_allowed_everywhere;
          quick "escalation chain (factory)" test_os_escalation_chain_v1;
          quick "escalation blocked (hardened)" test_os_escalation_blocked_v2;
          quick "runtime hardening" test_os_runtime_hardening;
        ] );
    ]
