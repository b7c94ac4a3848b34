(* Multi-segment topologies: spec validation, derived routing and its
   equivalence with flat-bus delivery, the central/distributed placement
   switch, and blast-radius containment under segment-scoped faults. *)

module V = Secpol_vehicle
module Can = Secpol_can
module F = Secpol_faults
module Engine = Secpol_sim.Engine
module Topology = Can.Topology
module Tcar = V.Topology_car
module Segment_map = V.Segment_map
module Segmented = V.Segmented
module Car = V.Car
module Names = V.Names
module Messages = V.Messages
module State = V.State
module Node = Can.Node
module Frame = Can.Frame
module Identifier = Can.Identifier

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* ---------- Spec validation ---------- *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail ("accepted " ^ what)

let build ?(flows = []) spec =
  let sim = Engine.create () in
  Topology.create sim spec ~flows

let test_spec_validation () =
  expect_invalid "duplicate segment names" (fun () ->
      build
        { Topology.segments = [ ("a", [ "x" ]); ("a", [ "y" ]) ]; links = [] });
  expect_invalid "node in two segments" (fun () ->
      build
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "x" ]) ];
          links = [ ("g", ("a", "b")) ];
        });
  expect_invalid "link to unknown segment" (fun () ->
      build
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
          links = [ ("g", ("a", "nope")) ];
        });
  expect_invalid "cyclic segment graph" (fun () ->
      build
        {
          Topology.segments =
            [ ("a", [ "x" ]); ("b", [ "y" ]); ("c", [ "z" ]) ];
          links =
            [ ("g1", ("a", "b")); ("g2", ("b", "c")); ("g3", ("c", "a")) ];
        });
  expect_invalid "disconnected segment graph" (fun () ->
      build
        {
          Topology.segments =
            [ ("a", [ "x" ]); ("b", [ "y" ]); ("c", [ "z" ]) ];
          links = [ ("g1", ("a", "b")) ];
        });
  expect_invalid "flow from an unknown segment" (fun () ->
      build
        ~flows:[ { Topology.id = 0x100; src = "nope"; dsts = [ "a" ] } ]
        {
          Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
          links = [ ("g", ("a", "b")) ];
        })

let test_derived_whitelists_and_route () =
  let topo =
    build
      ~flows:[ { Topology.id = 0x100; src = "a"; dsts = [ "b" ] } ]
      {
        Topology.segments = [ ("a", [ "x" ]); ("b", [ "y" ]) ];
        links = [ ("g", ("a", "b")) ];
      }
  in
  (* the flow crosses a -> b only; the reverse edge stays empty *)
  check
    Alcotest.(list int)
    "a->b carries the flow" [ 0x100 ]
    (Topology.crossing_ids topo ~gateway:"g" `A_to_b);
  check
    Alcotest.(list int)
    "b->a is empty" []
    (Topology.crossing_ids topo ~gateway:"g" `B_to_a);
  check
    Alcotest.(list string)
    "route follows the carrying edge" [ "a"; "b" ]
    (Topology.route topo ~src:"a" 0x100);
  check
    Alcotest.(list string)
    "no reverse route" [ "b" ]
    (Topology.route topo ~src:"b" 0x100);
  check
    Alcotest.(list string)
    "unknown id stays local" [ "a" ]
    (Topology.route topo ~src:"a" 0x7ff)

let test_components_blast_regions () =
  let sim = Engine.create () in
  let spec = Segment_map.spec () in
  let topo =
    Topology.create sim spec ~flows:(Segment_map.flows ~spec ())
  in
  let sorted comps =
    List.sort compare (List.map (List.sort compare) comps)
  in
  (* severing the infotainment gateway splits exactly that leaf off *)
  check
    Alcotest.(list (list string))
    "leaf cut off"
    (sorted
       [
         [
           Segment_map.seg_powertrain;
           Segment_map.seg_chassis;
           Segment_map.seg_telematics;
         ];
         [ Segment_map.seg_infotainment ];
       ])
    (sorted
       (Topology.components topo ~without:[ Segment_map.gw_infotainment ]));
  (match Topology.components topo ~without:[ "nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an unknown gateway name")

(* ---------- Segmented as the two-segment special case ---------- *)

let test_two_segment_matches_segmented () =
  let spec = Segment_map.two_segment_spec () in
  let sim = Engine.create () in
  let topo = Topology.create sim spec ~flows:(Segment_map.flows ~spec ()) in
  let union =
    List.sort_uniq compare
      (Topology.crossing_ids topo ~gateway:"gateway" `A_to_b
      @ Topology.crossing_ids topo ~gateway:"gateway" `B_to_a)
  in
  check
    Alcotest.(list int)
    "derived whitelist = historical crossing set"
    (List.sort_uniq compare (Segmented.crossing_ids ()))
    union;
  (* and the rebased Segmented still behaves: cross-segment telemetry plus
     the crash chain spanning both buses *)
  let car = Segmented.create () in
  Segmented.run car ~seconds:1.0;
  (match
     V.Infotainment.displayed_speed (Segmented.node car Names.infotainment)
   with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "telemetry never crossed the gateway")

(* ---------- Four-segment reference car ---------- *)

let test_four_segment_benign_function () =
  let car = Tcar.create () in
  Tcar.run car ~seconds:1.0;
  (* speed telemetry reaches the driver display over two hops:
     powertrain -> chassis backbone -> infotainment leaf *)
  (match V.Infotainment.displayed_speed (Tcar.node car Names.infotainment) with
  | Some s -> check Alcotest.(float 0.01) "display shows 50" 50.0 s
  | None -> Alcotest.fail "telemetry never crossed two gateways");
  check
    Alcotest.(list string)
    "accel route spans the star"
    [
      Segment_map.seg_powertrain;
      Segment_map.seg_chassis;
      Segment_map.seg_infotainment;
    ]
    (Topology.route (Tcar.topology car) ~src:Segment_map.seg_powertrain
       Messages.accel_status);
  List.iter
    (fun seg ->
      Alcotest.(check bool) (seg ^ " delivers") true
        (Tcar.deliveries_in car seg > 0);
      check Alcotest.int (seg ^ " false blocks") 0
        (Tcar.false_blocks_in car seg))
    (Tcar.segments car);
  (* the crash chain spans three segments: safety (chassis) locks state,
     door locks react, telematics places the call *)
  V.Safety.trigger_crash (Tcar.node car Names.safety) (Tcar.state car);
  Tcar.run car ~seconds:0.5;
  Alcotest.(check bool) "doors unlocked across segments" false
    (Tcar.state car).State.doors_locked;
  check Alcotest.int "emergency call placed" 1
    (Tcar.state car).State.emergency_calls

(* ---------- Placement: central vs distributed ---------- *)

(* eps_command is designed to cross powertrain -> chassis (ev_ecu -> eps),
   so its ID is on the gateway whitelist.  A forged copy from the sensors
   node rides that whitelist under central placement — the per-ID residual
   weakness — while distributed placement stops it at the sensors' own
   write gate before it ever reaches the bus. *)
let forged_crossing_command placement =
  let car = Tcar.create ~placement () in
  Tcar.run car ~seconds:0.2;
  let marker = "\x7f" in
  let accepted =
    Node.send (Tcar.node car Names.sensors)
      (Frame.data_std Messages.eps_command marker)
  in
  Tcar.run car ~seconds:0.2;
  let received =
    List.exists
      (fun (f : Frame.t) ->
        Identifier.raw f.id = Messages.eps_command && f.payload = marker)
      (Node.received (Tcar.node car Names.eps))
  in
  (car, accepted, received)

let test_central_forwards_crossing_forgery () =
  let car, accepted, received = forged_crossing_command `Central in
  Alcotest.(check bool) "no HPE under central placement" true
    (Tcar.hpe car Names.sensors = None);
  Alcotest.(check bool) "send accepted" true accepted;
  Alcotest.(check bool) "forged crossing ID forwarded to eps" true received

let test_distributed_blocks_at_source () =
  let car, accepted, received = forged_crossing_command `Distributed in
  Alcotest.(check bool) "HPE present" true (Tcar.hpe car Names.sensors <> None);
  Alcotest.(check bool) "write gate refuses the forgery" false accepted;
  Alcotest.(check bool) "eps never sees it" false received;
  (* the refusal happened at the sensors' own write gate — enforcement in
     the source segment, not downstream at a gateway *)
  (match Tcar.hpe car Names.sensors with
  | Some hpe ->
      Alcotest.(check bool) "blocked at the sensors' write gate" true
        (Secpol_hpe.Engine.write_blocks hpe > 0)
  | None -> Alcotest.fail "no HPE on sensors")

(* ---------- Routing equivalence with the flat bus ---------- *)

(* The declared semantics: a topology delivers exactly what the flat
   broadcast bus would, filtered by route membership.  Inject one marked
   frame from a random node with a random standard ID; the receivers on
   the topology car must be the flat car's receivers restricted to
   segments the derived routing reaches from the sender's segment. *)
let prop_routing_matches_flat_filtered =
  QCheck.Test.make ~name:"topology delivery = flat delivery filtered by route"
    ~count:15
    QCheck.(pair (oneofl Names.nodes) (int_range 0 0x7ff))
    (fun (sender, id) ->
      let marker = "\x7f\x7f\x7f\x7f\x7f" in
      let received_marker node =
        List.exists
          (fun (f : Frame.t) ->
            Identifier.raw f.id = id && f.payload = marker)
          (Node.received node)
      in
      let flat = Car.create ~driving:false () in
      ignore (Node.send (Car.node flat sender) (Frame.data_std id marker));
      Car.run flat ~seconds:0.2;
      let flat_receivers =
        List.filter
          (fun n -> n <> sender && received_marker (Car.node flat n))
          Names.nodes
      in
      (* central placement: same stock acceptance filters as the flat car,
         only the gateways between sender and receiver *)
      let tcar = Tcar.create ~placement:`Central ~driving:false () in
      ignore (Node.send (Tcar.node tcar sender) (Frame.data_std id marker));
      Tcar.run tcar ~seconds:0.2;
      let reachable =
        Topology.route (Tcar.topology tcar)
          ~src:(Option.get (Tcar.segment_of tcar sender))
          id
      in
      let expected =
        List.filter
          (fun n ->
            match Tcar.segment_of tcar n with
            | Some seg -> List.mem seg reachable
            | None -> false)
          flat_receivers
      in
      let actual =
        List.filter
          (fun n -> n <> sender && received_marker (Tcar.node tcar n))
          Names.nodes
      in
      expected = actual)

(* ---------- Plans against a topology ---------- *)

let reference_topology () =
  let spec = Segment_map.spec () in
  {
    F.Plan.segments = List.map fst spec.Topology.segments;
    gateways = List.map fst spec.Topology.links;
  }

let test_plan_validates_against_topology () =
  let topology = reference_topology () in
  List.iter
    (fun name ->
      match F.Plan.of_name ~horizon:2.0 name with
      | None -> Alcotest.fail (name ^ " is not a named plan")
      | Some plan -> (
          Alcotest.(check bool)
            (name ^ " listed") true
            (List.mem name F.Plan.named);
          Alcotest.(check bool)
            (name ^ " segment-scoped") true
            (F.Plan.segment_scoped plan);
          match F.Plan.validate ~topology plan with
          | Ok () -> ()
          | Error e -> Alcotest.fail e))
    [ "segment-partition"; "segment-babble"; "gateway-failover" ];
  let bad =
    {
      F.Plan.name = "bad";
      horizon = 2.0;
      entries =
        [
          {
            F.Plan.at = 0.5;
            kind =
              F.Fault.Segment_partition
                { segment = "nope"; heal_after = 0.2 };
          };
        ];
    }
  in
  (match F.Plan.validate ~topology bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an unknown segment name");
  (* a flat-bus harness owns no segments: every segment-scoped entry is an
     error against the empty topology *)
  let flat = { F.Plan.segments = []; gateways = [] } in
  match
    F.Plan.validate ~topology:flat (F.Plan.segment_partition ~horizon:2.0)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flat topology accepted a segment fault"

(* ---------- Blast containment ---------- *)

let test_blast_babble_contained () =
  let plan = F.Plan.segment_babble ~horizon:1.5 in
  let o = F.Blast.run ~seed:7L ~plan () in
  Alcotest.(check bool) "contained" true o.F.Blast.passed;
  Alcotest.(check bool) "no violations" true
    (F.Invariant.Blast.ok o.F.Blast.checker);
  (* the babbling segment is the whole blast region *)
  check
    Alcotest.(list string)
    "region is the victim segment"
    [ Segment_map.seg_infotainment ]
    (F.Blast.faulted o.F.Blast.blast)

let test_blast_unbounded_gateway_caught () =
  (* the deliberately-broken build: an effectively unlimited admission
     queue lets the babble grow a backlog the containment gate must see.
     The full 4 s horizon gives the 1.8 s babble window time to queue
     more forwards than the backlog bound *)
  let plan = F.Plan.segment_babble ~horizon:4.0 in
  let o = F.Blast.run ~unbounded_gateway:true ~seed:7L ~plan () in
  Alcotest.(check bool) "containment violated" false o.F.Blast.passed;
  Alcotest.(check bool) "backlog check fired" true
    (List.exists
       (fun (v : F.Invariant.violation) -> v.check = "blast_gateway_backlog")
       (F.Invariant.Blast.violations o.F.Blast.checker))

let test_blast_gateway_failover_limp_home () =
  let plan = F.Plan.gateway_failover ~horizon:2.0 in
  let o = F.Blast.run ~seed:7L ~plan () in
  Alcotest.(check bool) "failover contained" true o.F.Blast.passed;
  match F.Blast.records o.F.Blast.blast with
  | [ r ] ->
      check
        Alcotest.(list string)
        "blast region is the cut-off leaf"
        [ Segment_map.seg_infotainment ]
        r.F.Blast.region;
      Alcotest.(check bool) "fault cleared into limp-home" true
        (r.F.Blast.cleared_at <> None)
  | _ -> Alcotest.fail "expected exactly one plan record"

(* ---------- Behaviour identity ---------- *)

(* One digest over everything a run lets an observer see: every trace
   entry (time, node, frame, event), each node's controller statistics
   and error counters, each HPE's counters, each gateway's per-direction
   counters, each bus's counters and the flat car's policy-engine
   statistics.  Two seeded runs feed it: the flat
   HPE car with a compromised node forging the four door/ECU commands,
   once on a clean bus and once on a noisy one (so retransmissions and
   line errors are in it too), and the four-segment car under both
   placements with the same forgeries from the sensors node.  The
   expected value was recorded before the HPE seal, the bus's wire
   sampling and the HPE config derivation were optimised: any change to
   what these runs observably do changes it. *)
let forged_commands =
  Messages.
    [
      (ecu_command, cmd_disable);
      (ecu_command, cmd_enable);
      (lock_command, cmd_lock);
      (lock_command, cmd_unlock);
    ]

let event_repr = function
  | Can.Trace.Tx_ok -> "tx_ok"
  | Tx_error -> "tx_error"
  | Tx_abandoned -> "tx_abandoned"
  | Tx_refused -> "tx_refused"
  | Rx_delivered r -> "rx_delivered:" ^ r
  | Rx_filtered r -> "rx_filtered:" ^ r
  | Rx_blocked (r, gate) -> "rx_blocked:" ^ r ^ ":" ^ gate
  | Rx_line_error r -> "rx_line_error:" ^ r

let add_trace buf trace =
  List.iter
    (fun (e : Can.Trace.entry) ->
      let f = e.frame in
      Printf.bprintf buf "%h|%s|%b:%x|%b|%d|%S|%s\n" e.time e.node
        (Identifier.is_extended f.id)
        (Identifier.raw f.id) f.rtr f.dlc f.payload (event_repr e.event))
    (Can.Trace.entries trace)

let add_bus buf bus =
  add_trace buf (Can.Bus.trace bus);
  Printf.bprintf buf "bus %d %d %d %d\n" (Can.Bus.frames_sent bus)
    (Can.Bus.retries bus) (Can.Bus.abandoned bus) (Can.Bus.wire_errors bus)

let add_node buf (name, node) hpe =
  let c = Node.controller node in
  let s = Can.Controller.stats c in
  let e = Can.Controller.errors c in
  Printf.bprintf buf "%s %d %d %d %d %d %d %d tec=%d rec=%d\n" name s.tx_ok
    s.tx_errors s.tx_abandoned s.tx_refused s.rx_delivered s.rx_filtered
    s.rx_line_errors (Can.Errors.tec e) (Can.Errors.rec_ e);
  Option.iter
    (fun h ->
      let module H = Secpol_hpe.Engine in
      Printf.bprintf buf "hpe %d %d %d %d %d %d %d\n" (H.read_grants h)
        (H.read_blocks h) (H.write_grants h) (H.write_blocks h)
        (H.rate_blocks h) (H.integrity_blocks h) (H.spoof_alerts h))
    hpe

let flat_car_run buf ~corrupt_prob =
  let car =
    Car.create ~seed:11L ~corrupt_prob
      ~enforcement:(Car.Hpe (V.Policy_map.baseline ()))
      ()
  in
  Car.run car ~seconds:0.5;
  let atk = Secpol_attack.Attacker.compromise car Names.telematics in
  List.iter
    (fun (msg_id, cmd) ->
      Printf.bprintf buf "forged %b\n"
        (Secpol_attack.Attacker.spoof_command atk ~msg_id cmd))
    forged_commands;
  Car.run car ~seconds:0.5;
  add_bus buf car.Car.bus;
  List.iter (fun (name, node) -> add_node buf (name, node) (Car.hpe car name))
    car.Car.nodes;
  Option.iter
    (fun e ->
      let s = Secpol_policy.Engine.stats e in
      Printf.bprintf buf "engine %d %d %d\n" s.decisions s.allows s.denies)
    car.Car.policy_engine

let topology_car_run buf placement =
  let car = Tcar.create ~seed:13L ~placement () in
  Tcar.run car ~seconds:0.5;
  List.iter
    (fun (msg_id, cmd) ->
      Printf.bprintf buf "forged %b\n"
        (Node.send (Tcar.node car Names.sensors)
           (Frame.data_std msg_id (String.make 1 cmd))))
    ((Messages.eps_command, '\x7f') :: forged_commands);
  Tcar.run car ~seconds:0.5;
  List.iter (fun seg -> add_bus buf (Tcar.bus car seg)) (Tcar.segments car);
  List.iter (fun (name, node) -> add_node buf (name, node) (Tcar.hpe car name))
    (Tcar.nodes car);
  let topology = Tcar.topology car in
  List.iter
    (fun gw ->
      let g = Topology.gateway topology gw in
      List.iter
        (fun dir ->
          Printf.bprintf buf "gw %s %d %d %d %d\n" gw
            (Can.Gateway.forwarded_dir g dir)
            (Can.Gateway.dropped_dir g dir)
            (Can.Gateway.shed_dir g dir)
            (Can.Gateway.retries_dir g dir))
        [ `A_to_b; `B_to_a ])
    (Topology.gateway_names topology)

let test_behaviour_identity () =
  let buf = Buffer.create (1 lsl 20) in
  flat_car_run buf ~corrupt_prob:0.0;
  flat_car_run buf ~corrupt_prob:0.05;
  topology_car_run buf `Central;
  topology_car_run buf `Distributed;
  check Alcotest.string "observable behaviour digest"
    "f6a58bb4a4dd22db790d4b5c49a9846b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "secpol_topology"
    [
      ( "spec",
        [
          quick "validation rejects malformed graphs" test_spec_validation;
          quick "derived whitelists and routing"
            test_derived_whitelists_and_route;
          quick "components = blast regions" test_components_blast_regions;
        ] );
      ( "segmented",
        [ quick "two-segment special case" test_two_segment_matches_segmented ]
      );
      ( "reference car",
        [
          slow "four-segment benign function" test_four_segment_benign_function;
        ] );
      ( "placement",
        [
          quick "central forwards crossing forgery"
            test_central_forwards_crossing_forgery;
          quick "distributed blocks at source"
            test_distributed_blocks_at_source;
        ] );
      ( "routing",
        [ QCheck_alcotest.to_alcotest prop_routing_matches_flat_filtered ] );
      ( "plans",
        [
          quick "validated against the topology"
            test_plan_validates_against_topology;
        ] );
      ( "blast",
        [
          slow "babble contained" test_blast_babble_contained;
          slow "unbounded gateway caught" test_blast_unbounded_gateway_caught;
          slow "gateway failover limp-home"
            test_blast_gateway_failover_limp_home;
        ] );
      ( "identity",
        [ quick "behaviour digest unchanged" test_behaviour_identity ] );
    ]
