module Can = Secpol_can
module Tcar = Secpol_vehicle.Topology_car
module Json = Secpol_policy.Json
module Obs_json = Secpol_policy.Obs_json
module Obs = Secpol_obs

type outcome = {
  harness : Harness.t;
  checker : Invariant.t;
  report : Json.t;
  passed : bool;
}

(* simulated seconds between invariant sweeps *)
let slice = 0.05

(* ---------- report ---------- *)

let ms s = s *. 1000.0

let opt_float = function None -> Json.Null | Some v -> Json.Float v

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let mttr (r : Harness.record) =
  match (r.Harness.injected_at, r.Harness.cleared_at) with
  | Some i, Some c -> Some (ms (c -. i))
  | _ -> None

let fault_json (r : Harness.record) =
  Json.Obj
    [
      ("kind", Json.String (Fault.label r.Harness.entry.Plan.kind));
      ("planned_at", Json.Float r.Harness.entry.Plan.at);
      ("injected_at", opt_float r.Harness.injected_at);
      ("cleared_at", opt_float r.Harness.cleared_at);
      ("mttr_ms", opt_float (mttr r));
      ("region", strings r.Harness.region);
    ]

let p99_of bus =
  let h = Can.Bus.tx_latency bus in
  if Obs.Histogram.count h = 0 then None
  else Some (Obs.Histogram.percentile h 99.0)

let segment_json car ~faulted ~twin seg =
  let bus = Tcar.bus car seg in
  let p99 = p99_of bus in
  let clean_p99 = p99_of (Tcar.bus twin seg) in
  let ratio =
    match (p99, clean_p99) with
    | Some p, Some c when c > 0.0 -> Some (p /. c)
    | _ -> None
  in
  Json.Obj
    [
      ("name", Json.String seg);
      ("faulted", Json.Bool (List.mem seg faulted));
      ("frames_sent", Json.Int (Can.Bus.frames_sent bus));
      ("deliveries", Json.Int (Tcar.deliveries_in car seg));
      ("utilisation", Json.Float (Can.Bus.utilisation bus));
      ("pending_end", Json.Int (Can.Bus.pending bus));
      ("tx_p99_ms", opt_float p99);
      ("clean_tx_p99_ms", opt_float clean_p99);
      ("p99_vs_clean", opt_float ratio);
      ("false_blocks", Json.Int (Tcar.false_blocks_in car seg));
    ]

let direction_json gw dir =
  Json.Obj
    [
      ("forwarded", Json.Int (Can.Gateway.forwarded_dir gw dir));
      ("dropped", Json.Int (Can.Gateway.dropped_dir gw dir));
      ("shed", Json.Int (Can.Gateway.shed_dir gw dir));
      ("retries", Json.Int (Can.Gateway.retries_dir gw dir));
    ]

let gateway_json topo name =
  let gw = Can.Topology.gateway topo name in
  Json.Obj
    [
      ("name", Json.String name);
      ("connected", Json.Bool (Can.Gateway.connected gw));
      ("in_flight_end", Json.Int (Can.Gateway.in_flight gw));
      ("a_to_b", direction_json gw `A_to_b);
      ("b_to_a", direction_json gw `B_to_a);
    ]

let report ~seed ~harness ~checker ~twin =
  let plan = Harness.plan harness in
  let car = Harness.car harness in
  let topo = Tcar.topology car in
  let faulted = Harness.faulted harness in
  let wd = Harness.watchdog harness in
  (* MTTR: fault injection to recovery action; MTTD: first failed ping to
     the watchdog trip.  Both live in the run's telemetry registry so the
     export pipeline (and merges) treat them like any other histogram. *)
  let obs = Harness.obs harness in
  let mttr_hist = Obs.Registry.histogram ~lo:0.1 obs "faults.mttr_ms" in
  let mttd_hist = Obs.Registry.histogram ~lo:0.1 obs "faults.mttd_ms" in
  List.iter
    (fun r -> Option.iter (Obs.Histogram.observe mttr_hist) (mttr r))
    (Harness.records harness);
  let detections = Watchdog.detections wd in
  List.iter
    (fun (_, mttd) -> Obs.Histogram.observe mttd_hist (ms mttd))
    detections;
  let failsafe =
    match Harness.stall_started harness with
    | None -> Json.Null
    | Some stall_at ->
        let entered = Harness.failsafe_entered harness in
        Json.Obj
          [
            ("stall_started", Json.Float stall_at);
            ("entered", opt_float entered);
            ( "latency_ms",
              opt_float (Option.map (fun e -> ms (e -. stall_at)) entered) );
            ("bound", Json.Float (Harness.failsafe_bound harness ~stall_at));
          ]
  in
  let violations = Invariant.violations checker in
  let bound = Invariant.bound in
  Json.Obj
    [
      ("plan", Json.String plan.Plan.name);
      ("seed", Json.String (Int64.to_string seed));
      ("horizon", Json.Float plan.Plan.horizon);
      ("placement", Json.String (Tcar.placement_name (Tcar.placement car)));
      ("degrading", Json.Bool (Plan.degrading plan));
      ("verdict", Json.String (if violations = [] then "pass" else "fail"));
      ("faults", Json.List (List.map fault_json (Harness.records harness)));
      ( "watchdog",
        Json.Obj
          [
            ("period_ms", Json.Float (ms (Watchdog.period wd)));
            ("deadline_ms", Json.Float (ms (Watchdog.deadline wd)));
            ("trips", Json.Int (Watchdog.trips wd));
            ( "detections",
              Json.List
                (List.map
                   (fun (at, mttd) ->
                     Json.Obj
                       [
                         ("at", Json.Float at); ("mttd_ms", Json.Float (ms mttd));
                       ])
                   detections) );
          ] );
      ("failsafe", failsafe);
      ("mttd_ms", Obs_json.histogram mttd_hist);
      ("mttr_ms", Obs_json.histogram mttr_hist);
      ( "bound",
        Json.Obj
          [
            ("max_pending", Json.Int bound.Invariant.max_pending);
            ("p99_ms", Json.Float bound.Invariant.p99_ms);
            ( "max_gateway_backlog",
              Json.Int bound.Invariant.max_gateway_backlog );
          ] );
      ( "blast_radius",
        Json.Obj
          [
            ("faulted_segments", strings faulted);
            ( "segments",
              Json.List
                (List.map
                   (segment_json car ~faulted ~twin)
                   (Tcar.segments car)) );
            ( "gateways",
              Json.List
                (List.map (gateway_json topo) (Can.Topology.gateway_names topo))
            );
          ] );
      ( "violations",
        Json.List
          (List.map
             (fun (v : Invariant.violation) ->
               Json.Obj
                 [
                   ("time", Json.Float v.Invariant.time);
                   ("check", Json.String v.Invariant.check);
                   ("detail", Json.String v.Invariant.detail);
                 ])
             violations) );
      ("telemetry", Obs_json.registry obs);
    ]

(* ---------- the runner ---------- *)

let run ?placement ?unbounded_gateway ~seed ~plan () =
  let harness = Harness.create ?placement ?unbounded_gateway ~seed ~plan () in
  let checker = Invariant.create harness in
  let horizon = plan.Plan.horizon in
  let rec step at =
    if at < horizon then begin
      Harness.run_until harness at;
      Invariant.check checker;
      step (at +. slice)
    end
  in
  step slice;
  Harness.run_until harness horizon;
  (* the never-faulted twin: the faulted run minus the plan, for the
     convergence check and the per-segment latency ratios *)
  let twin = Harness.twin harness in
  Tcar.run twin ~seconds:horizon;
  Invariant.finalize checker ~reference:twin;
  let report = report ~seed ~harness ~checker ~twin in
  { harness; checker; report; passed = Invariant.ok checker }
