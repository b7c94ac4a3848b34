module Engine = Secpol_sim.Engine
module Bus = Secpol_can.Bus
module Node = Secpol_can.Node
module Topology = Secpol_can.Topology

type placement = [ `Central | `Distributed ]

let placement_name = function
  | `Central -> "central"
  | `Distributed -> "distributed"

let placement_of_name = function
  | "central" -> Some `Central
  | "distributed" -> Some `Distributed
  | _ -> None

type t = {
  sim : Engine.t;
  topo : Topology.t;
  state : State.t;
  placement : placement;
  nodes : (string * Node.t) list;
  hpes : (string * Secpol_hpe.Engine.t) list;
  policy_engine : Secpol_policy.Engine.t option;
  (* fail-safe HPE configs computed at build time: entering Fail_safe must
     not depend on the policy engine still answering — the degradation
     path is exactly for when it does not *)
  failsafe_configs : (string * Secpol_hpe.Config.t) list;
}

let builders =
  [
    (Names.sensors, Sensors.create);
    (Names.ev_ecu, Ev_ecu.create);
    (Names.eps, Eps.create);
    (Names.engine, Engine_ecu.create);
    (Names.telematics, Telematics.create);
    (Names.infotainment, Infotainment.create);
    (Names.door_locks, Door_locks.create);
    (Names.safety, Safety.create);
  ]

(* Hard-reset and re-provision every HPE from one mode's configs; a
   register file reset this way also recovers from corruption. *)
let provision_hpes ~what hpes configs =
  List.iter
    (fun (name, hpe) ->
      match List.find_opt (fun (n, _) -> String.equal n name) configs with
      | None -> ()
      | Some (_, config) -> (
          Secpol_hpe.Registers.hard_reset (Secpol_hpe.Engine.registers hpe);
          match Secpol_hpe.Engine.provision hpe config with
          | Ok () -> ()
          | Error e ->
              invalid_arg
                (Printf.sprintf "Topology_car: %s %s: %s" what name e)))
    hpes

let create ?(seed = 42L) ?(bitrate = 500_000.0) ?(corrupt_prob = 0.0)
    ?(driving = true) ?(placement = `Distributed) ?policy ?spec ?obs
    ?max_in_flight () =
  (* only the flows and the HPE bank read the policy *)
  let policy =
    lazy (match policy with Some p -> p | None -> Policy_map.baseline ())
  in
  let spec = match spec with Some s -> s | None -> Segment_map.spec () in
  let sim = Engine.create ~seed () in
  (* flows only feed gateway whitelists, and deriving them re-compiles the
     policy and probes every (message, consumer, mode): a spec without
     links skips it *)
  let flows =
    if spec.Topology.links = [] then []
    else Segment_map.flows ~policy:(Lazy.force policy) ~spec ()
  in
  let topo =
    Topology.create ~bitrate ~corrupt_prob ?max_in_flight sim spec ~flows
  in
  Option.iter (fun reg -> Topology.attach_obs topo reg) obs;
  let state = if driving then State.driving () else State.create () in
  let nodes =
    List.map
      (fun (name, build) ->
        match Topology.segment_of topo name with
        | Some seg -> (name, build sim (Topology.bus topo seg) state)
        | None ->
            invalid_arg
              (Printf.sprintf "Topology_car: node %S is in no segment" name))
      builders
  in
  (* Central placement is the DiSPEL comparison point: enforcement lives
     only in the gateways' policy-derived whitelists (plus the ECUs' stock
     acceptance filters); distributed adds a per-node HPE bank on every
     segment, so a forged-but-legitimately-crossing ID is stopped at its
     source instead of being forwarded. *)
  let hpes, policy_engine, failsafe_configs =
    match placement with
    | `Central -> ([], None, [])
    | `Distributed ->
        (* not on [obs]: the engine would time its decisions on the host
           clock, and everything [obs] holds runs on the simulation's *)
        let engine = Policy_map.engine (Lazy.force policy) in
        let hpes =
          List.map
            (fun (name, node) -> (name, Secpol_hpe.Engine.install ?obs node))
            nodes
        in
        let table = Secpol_policy.Engine.table engine in
        provision_hpes ~what:"HPE provisioning" hpes
          (Policy_map.hpe_configs table state.State.mode);
        (hpes, Some engine, Policy_map.hpe_configs table Modes.Fail_safe)
  in
  { sim; topo; state; placement; nodes; hpes; policy_engine; failsafe_configs }

let sim t = t.sim

let topology t = t.topo

let placement t = t.placement

let state t = t.state

let node t name =
  match List.assoc_opt name t.nodes with
  | Some n -> n
  | None ->
      invalid_arg (Printf.sprintf "Topology_car.node: unknown node %S" name)

let nodes t = t.nodes

let hpes t = t.hpes

let hpe t name = List.assoc_opt name t.hpes

let policy_engine t = t.policy_engine

let run t ~seconds = Engine.run_until t.sim (Engine.now t.sim +. seconds)

let mode t = t.state.State.mode

let set_mode t mode =
  t.state.State.mode <- mode;
  State.log t.state ~time:(Engine.now t.sim)
    (Printf.sprintf "car: mode -> %s" (Modes.name mode));
  match t.policy_engine with
  | Some engine ->
      provision_hpes ~what:"HPE provisioning" t.hpes
        (Policy_map.hpe_configs (Secpol_policy.Engine.table engine) mode)
  | None -> ()

let enter_fail_safe t ~reason =
  if t.state.State.mode <> Modes.Fail_safe then begin
    t.state.State.mode <- Modes.Fail_safe;
    t.state.State.failsafe_latched <- true;
    State.log t.state ~time:(Engine.now t.sim)
      (Printf.sprintf "car: fail-safe entered (%s)" reason);
    provision_hpes ~what:"fail-safe provisioning" t.hpes t.failsafe_configs
  end

let segments t = Topology.segments t.topo

let segment_of t node = Topology.segment_of t.topo node

let bus t seg = Topology.bus t.topo seg

let deliveries_in t seg =
  List.fold_left
    (fun acc n -> acc + Node.received_count (node t n))
    0
    (Topology.members t.topo seg)

let total_deliveries t =
  List.fold_left (fun acc (_, n) -> acc + Node.received_count n) 0 t.nodes

(* Enforcement blocks that hit designed traffic in one segment: write-gate
   blocks at the segment's own HPEs plus read-gate blocks of frames whose
   receiver is a designed consumer.  On a broadcast bus the HPE also
   drops frames a node never consumes; those are correct and not
   counted. *)
let false_blocks_in t seg =
  let members = Topology.members t.topo seg in
  let write_blocks =
    List.fold_left
      (fun acc (name, h) ->
        if List.mem name members then acc + Secpol_hpe.Engine.write_blocks h
        else acc)
      0 t.hpes
  in
  let bad_read_blocks =
    Secpol_can.Trace.count
      (Bus.trace (bus t seg))
      (fun e ->
        match e.Secpol_can.Trace.event with
        | Secpol_can.Trace.Rx_blocked (receiver, _) -> (
            match e.Secpol_can.Trace.frame.Secpol_can.Frame.id with
            | Secpol_can.Identifier.Standard id -> (
                match Messages.find id with
                | Some m -> List.mem receiver m.consumers
                | None -> false)
            | Secpol_can.Identifier.Extended _ -> false)
        | _ -> false)
  in
  write_blocks + bad_read_blocks
