module Topology = Secpol_can.Topology
module Policy = Secpol_policy

let seg_powertrain = "powertrain"

let seg_chassis = "chassis"

let seg_infotainment = "infotainment"

let seg_telematics = "telematics"

let seg_comfort = "comfort"

let gw_powertrain = "gw_powertrain"

let gw_infotainment = "gw_infotainment"

let gw_telematics = "gw_telematics"

(* Four-segment reference car: a chassis backbone carrying the safety
   domain, with the powertrain and the two externally-exposed domains
   (infotainment, telematics) each behind their own gateway.  The split
   mirrors the paper's §II architecture figure: the attack-surface ECUs
   (connectivity, media) are the leaves, the safety-critical backbone is
   what their gateways protect. *)
let spec () =
  {
    Topology.segments =
      [
        (seg_powertrain, [ Names.sensors; Names.ev_ecu; Names.engine ]);
        (seg_chassis, [ Names.eps; Names.safety; Names.door_locks ]);
        (seg_infotainment, [ Names.infotainment ]);
        (seg_telematics, [ Names.telematics ]);
      ];
    links =
      [
        (gw_powertrain, (seg_powertrain, seg_chassis));
        (gw_infotainment, (seg_infotainment, seg_chassis));
        (gw_telematics, (seg_telematics, seg_chassis));
      ];
  }

(* The historical two-bus split (powertrain vs comfort) — Segmented builds
   on this, making the old hand-wired module a special case of the graph. *)
let two_segment_spec () =
  {
    Topology.segments =
      [
        ( seg_powertrain,
          [ Names.sensors; Names.ev_ecu; Names.eps; Names.engine; Names.safety ]
        );
        ( seg_comfort,
          [ Names.infotainment; Names.telematics; Names.door_locks ] );
      ];
    links = [ ("gateway", (seg_powertrain, seg_comfort)) ];
  }

let segment_of_node (spec : Topology.spec) node =
  List.find_map
    (fun (seg, nodes) -> if List.mem node nodes then Some seg else None)
    spec.Topology.segments

let segment_of_node_exn spec node =
  match segment_of_node spec node with
  | Some seg -> seg
  | None ->
      invalid_arg
        (Printf.sprintf "Segment_map: node %S is in no segment" node)

(* Designed flows, policy-filtered: one flow per (message, producing
   segment), with destination segments restricted to consumers the policy
   lets read the message in at least one mode.  Rate budgets must not be
   consumed while deriving routes, so the policy database is queried
   through a fresh uninstrumented engine. *)
let flows ?policy ~spec () =
  let policy = match policy with Some p -> p | None -> Policy_map.baseline () in
  let engine = Policy.Engine.create (Policy_map.compile policy) in
  let readable (m : Messages.t) node =
    List.exists
      (fun mode ->
        Policy.Engine.permitted engine
          {
            Policy.Ir.mode = Modes.name mode;
            subject = Names.asset_of_node node;
            asset = m.asset;
            op = Policy.Ir.Read;
            msg_id = Some m.id;
          })
      Modes.all
  in
  List.concat_map
    (fun (m : Messages.t) ->
      let dsts =
        m.consumers
        |> List.filter (readable m)
        |> List.map (segment_of_node_exn spec)
        |> List.sort_uniq compare
      in
      if dsts = [] then []
      else
        m.producers
        |> List.map (segment_of_node_exn spec)
        |> List.sort_uniq compare
        |> List.map (fun src -> { Topology.id = m.id; src; dsts }))
    Messages.all

(* The fail-closed limp-home whitelist for gateway failover: only
   mode-unrestricted safety-critical crossings (airbag deploy, fail-safe
   entry) keep flowing; every telemetry, command and diagnostic crossing
   is dropped until the gateway is repaired. *)
let minimal_crossing_ids () =
  let spec = spec () in
  Messages.all
  |> List.filter_map (fun (m : Messages.t) ->
         if m.asset <> Names.asset_safety_critical || m.modes <> [] then None
         else
           let segs nodes =
             List.sort_uniq compare
               (List.map (segment_of_node_exn spec) nodes)
           in
           let crosses =
             List.exists
               (fun p -> List.exists (fun c -> p <> c) (segs m.consumers))
               (segs m.producers)
           in
           if crosses then Some m.id else None)
  |> List.sort_uniq compare
