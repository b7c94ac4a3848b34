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
  (* what the HPEs are provisioned from in every mode, shared with every
     car built from the same policy value; never the engine, so entering
     Fail_safe does not depend on the engine still answering, the
     degradation path being exactly for when it does not *)
  image : Policy_map.image option;
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

(* no closure per node, and no polymorphic compare *)
let rec config_of name = function
  | [] -> None
  | (n, config) :: rest ->
      if String.equal n name then Some config else config_of name rest

(* The one provisioning path: hard-reset one HPE's register file, which
   also recovers a corrupted one, and program its node's config. *)
let provision configs (name, hpe) =
  match config_of name configs with
  | None -> ()
  | Some config -> (
      Secpol_hpe.Registers.hard_reset (Secpol_hpe.Engine.registers hpe);
      match Secpol_hpe.Engine.provision hpe config with
      | Ok () -> ()
      | Error e -> invalid_arg (Printf.sprintf "Topology_car: %s: %s" name e))

let hpe_configs t mode =
  match t.image with Some image -> Policy_map.configs image mode | None -> []

(* The one writer of the mode, the fail-safe latch and the mode timeline:
   entering Fail_safe sets the latch and does nothing while it is set, any
   other mode clears it.  A move journals [line] and provisions every HPE. *)
let move t mode line =
  let state = t.state and now = Engine.now t.sim in
  let fail_safe = mode = Modes.Fail_safe in
  if fail_safe && state.State.failsafe_latched then false
  else begin
    state.State.mode <- mode;
    state.State.failsafe_latched <- fail_safe;
    State.log state ~time:now line;
    state.State.modes <- (now, mode) :: state.State.modes;
    List.iter (provision (hpe_configs t mode)) t.hpes;
    true
  end

let fail_safe t ~by reason =
  move t Modes.Fail_safe (Printf.sprintf "%s: fail-safe entered (%s)" by reason)

let create ?(seed = 42L) ?(bitrate = 500_000.0) ?(corrupt_prob = 0.0)
    ?(driving = true) ?(placement = `Distributed) ?policy ?spec ?obs
    ?max_in_flight () =
  (* only the flows and the HPE bank read the policy *)
  let policy =
    lazy (match policy with Some p -> p | None -> Policy_map.baseline ())
  in
  let spec = match spec with Some s -> s | None -> Segment_map.spec () in
  let sim = Engine.create ~seed () in
  (* flows only feed gateway whitelists, and deriving them probes every
     (message, consumer, mode) of the policy's image: a spec without
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
  let hpes, policy_engine, image =
    match placement with
    | `Central -> ([], None, None)
    | `Distributed ->
        let image = Policy_map.image (Lazy.force policy) in
        (* the car's own engine over the shared table: its budgets,
           counters and stall flag are private.  Not on [obs]: the engine
           would time its decisions on the host clock, and everything
           [obs] holds runs on the simulation's *)
        let engine =
          Secpol_policy.Engine.of_table (Policy_map.table image)
            (Policy_map.db image)
        in
        let hpes =
          List.map
            (fun (name, node) -> (name, Secpol_hpe.Engine.install ?obs node))
            nodes
        in
        List.iter (provision (Policy_map.configs image state.State.mode)) hpes;
        (* derived now, so entering Fail_safe derives nothing *)
        ignore (Policy_map.configs image Modes.Fail_safe);
        (hpes, Some engine, Some image)
  in
  let t = { sim; topo; state; placement; nodes; hpes; policy_engine; image } in
  (* the ECUs' one way to a mode: the safety ECU asks for Fail_safe *)
  state.State.request_fail_safe <- fail_safe t;
  t

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
  ignore (move t mode (Printf.sprintf "car: mode -> %s" (Modes.name mode)))

let enter_fail_safe t ~reason = ignore (fail_safe t ~by:"car" reason)

let reprovision t name =
  Option.iter
    (fun hpe -> provision (hpe_configs t (mode t)) (name, hpe))
    (hpe t name)

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
