module Node = Secpol_can.Node
module Controller = Secpol_can.Controller

type enforcement =
  | No_enforcement
  | Software_filters
  | Hpe of Secpol_policy.Ast.policy

type t = {
  sim : Secpol_sim.Engine.t;
  bus : Secpol_can.Bus.t;
  state : State.t;
  enforcement : enforcement;
  nodes : (string * Node.t) list;
  hpes : (string * Secpol_hpe.Engine.t) list;
  policy_engine : Secpol_policy.Engine.t option;
  topology_car : Topology_car.t;
}

(* The flat car is the one-segment topology car: an HPE bank is the
   distributed placement, the stock acceptance filters alone the central
   one (with no gateways, "central" enforces nothing beyond them). *)
let create ?seed ?bitrate ?corrupt_prob ?(enforcement = Software_filters)
    ?driving ?obs () =
  let placement, policy =
    match enforcement with
    | Hpe p -> (`Distributed, Some p)
    | No_enforcement | Software_filters -> (`Central, None)
  in
  let car =
    Topology_car.create ?seed ?bitrate ?corrupt_prob ?driving ~placement
      ?policy ~spec:(Segment_map.flat_spec ()) ?obs ()
  in
  let nodes = Topology_car.nodes car in
  (match enforcement with
  | No_enforcement ->
      List.iter
        (fun (_, node) -> Controller.set_filters (Node.controller node) [])
        nodes
  | Software_filters | Hpe _ -> ());
  {
    sim = Topology_car.sim car;
    bus = Topology_car.bus car Segment_map.seg_bus;
    state = Topology_car.state car;
    enforcement;
    nodes;
    hpes = Topology_car.hpes car;
    policy_engine = Topology_car.policy_engine car;
    topology_car = car;
  }

let node t name = Topology_car.node t.topology_car name

let hpe t name = Topology_car.hpe t.topology_car name

let run t ~seconds = Topology_car.run t.topology_car ~seconds

let mode t = Topology_car.mode t.topology_car

let set_mode t mode = Topology_car.set_mode t.topology_car mode

let false_hpe_blocks t =
  Topology_car.false_blocks_in t.topology_car Segment_map.seg_bus

let total_deliveries t = Topology_car.total_deliveries t.topology_car

let trace t = Secpol_can.Bus.trace t.bus
