module Engine = Secpol_sim.Engine
module Obs = Secpol_obs
module Can = Secpol_can
module Hpe = Secpol_hpe
module Tcar = Secpol_vehicle.Topology_car
module Segment_map = Secpol_vehicle.Segment_map
module Messages = Secpol_vehicle.Messages
module Modes = Secpol_vehicle.Modes
module State = Secpol_vehicle.State

type violation = { time : float; check : string; detail : string }

type bound = { max_pending : int; p99_ms : float; max_gateway_backlog : int }

(* Pending and p99 are far above a healthy segment's steady state (a few
   frames, sub-millisecond) but far below what a saturated or severed
   segment exhibits, so drift towards the bound is a containment leak
   long before user-visible failure.  The gateway backlog bound is twice
   the default admission limit: a correctly bounded gateway can never
   reach it, an unbounded one under a babbling destination does. *)
let bound = { max_pending = 512; p99_ms = 25.0; max_gateway_backlog = 128 }

(* Liveness is a time window, not a slice: a four-segment car's leaves
   see traffic less often than every slice.  Periodic traffic needs a
   moment to start crossing gateways, hence the warm-up. *)
let liveness_warmup = 0.5

let liveness_window = 0.25

type seg_state = {
  seg : string;
  bus : Can.Bus.t;
  mutable cursor : int; (* trace entries already examined *)
  mutable last_sent : int;
  mutable last_abandoned : int;
  mutable last_deliveries : int;
  mutable progress_at : float; (* when deliveries were last seen growing *)
  mutable last_false_blocks : int;
}

type t = {
  harness : Harness.t;
  car : Tcar.t;
  segs : seg_state list;
  mutable violations : violation list; (* newest first *)
}

let create harness =
  let car = Harness.car harness in
  {
    harness;
    car;
    segs =
      List.map
        (fun seg ->
          {
            seg;
            bus = Tcar.bus car seg;
            cursor = 0;
            last_sent = 0;
            last_abandoned = 0;
            last_deliveries = 0;
            progress_at = 0.0;
            last_false_blocks = 0;
          })
        (Tcar.segments car);
    violations = [];
  }

let violations t = List.rev t.violations

let ok t = t.violations = []

let fail t ~check detail =
  let time = Engine.now (Tcar.sim t.car) in
  t.violations <- { time; check; detail } :: t.violations

(* ---------- every segment, every slice ---------- *)

let check_counters t st =
  let sent = Can.Bus.frames_sent st.bus in
  let abandoned = Can.Bus.abandoned st.bus in
  let pending = Can.Bus.pending st.bus in
  if sent < st.last_sent then
    fail t ~check:"counters"
      (Printf.sprintf "segment %s: frames_sent went backwards (%d -> %d)"
         st.seg st.last_sent sent);
  if abandoned < st.last_abandoned then
    fail t ~check:"counters"
      (Printf.sprintf "segment %s: abandoned went backwards (%d -> %d)" st.seg
         st.last_abandoned abandoned);
  if pending > 10_000 then
    fail t ~check:"counters"
      (Printf.sprintf
         "segment %s: %d frames pending: arbitration queue is diverging"
         st.seg pending);
  st.last_sent <- sent;
  st.last_abandoned <- abandoned

(* Every delivery at an HPE-guarded node must be on that node's approved
   reading list for the operating mode in force.  Frames completing in
   the same timestamp batch as a mode switch may have been gated under
   the outgoing mode, so a delivery is also accepted if the mode a
   millisecond earlier approved it. *)
let approved t ~node ~time msg_id =
  let approved_under mode =
    match Harness.config_for t.harness ~mode ~node with
    | None -> true (* no cached config: nothing to judge against *)
    | Some config -> List.mem msg_id config.Hpe.Config.read_ids
  in
  approved_under (Harness.mode_at t.harness time)
  || approved_under (Harness.mode_at t.harness (time -. 0.001))

let check_deliveries t st =
  let entries = Can.Trace.entries (Can.Bus.trace st.bus) in
  let fresh = List.filteri (fun i _ -> i >= st.cursor) entries in
  st.cursor <- List.length entries;
  List.iter
    (fun e ->
      match e.Can.Trace.event with
      | Can.Trace.Rx_delivered receiver when Tcar.hpe t.car receiver <> None ->
          let id = e.Can.Trace.frame.Can.Frame.id in
          let msg_id = Can.Identifier.raw id in
          if
            Can.Identifier.is_extended id
            || not (approved t ~node:receiver ~time:e.Can.Trace.time msg_id)
          then
            fail t ~check:"approved_rx"
              (Printf.sprintf "0x%03X delivered to %s at %.4fs outside its %s"
                 msg_id receiver e.Can.Trace.time "approved reading list")
      | _ -> ())
    fresh

(* ---------- segments outside the blast region ---------- *)

(* The containment obligation: outside the faulted region, queues stay
   bounded, delivery latency stays flat, frames keep arriving, and
   enforcement never starts blocking designed traffic.  Inside the region
   anything goes — that segment is the blast. *)
let check_contained t st ~now =
  let pending = Can.Bus.pending st.bus in
  if pending > bound.max_pending then
    fail t ~check:"blast_pending"
      (Printf.sprintf "segment %s: %d frames pending (bound %d)" st.seg pending
         bound.max_pending);
  let latency = Can.Bus.tx_latency st.bus in
  if Obs.Histogram.count latency > 0 then begin
    let p99 = Obs.Histogram.percentile latency 99.0 in
    if p99 > bound.p99_ms then
      fail t ~check:"blast_latency"
        (Printf.sprintf "segment %s: tx p99 %.2fms (bound %.2fms)" st.seg p99
           bound.p99_ms)
  end;
  let deliveries = Tcar.deliveries_in t.car st.seg in
  if deliveries > st.last_deliveries then begin
    st.last_deliveries <- deliveries;
    st.progress_at <- now
  end
  else if now >= liveness_warmup && now -. st.progress_at >= liveness_window
  then
    fail t ~check:"blast_liveness"
      (Printf.sprintf "segment %s: no deliveries since %.3fs (stuck at %d)"
         st.seg st.progress_at deliveries);
  let false_blocks = Tcar.false_blocks_in t.car st.seg in
  if false_blocks > st.last_false_blocks then
    fail t ~check:"blast_decisions"
      (Printf.sprintf
         "segment %s: %d new enforcement blocks on designed traffic" st.seg
         (false_blocks - st.last_false_blocks));
  st.last_false_blocks <- false_blocks

(* Inside the region, keep the baselines warm so a healed segment is not
   flagged for history accumulated during the fault. *)
let keep_warm t st ~now =
  st.last_deliveries <- Tcar.deliveries_in t.car st.seg;
  st.progress_at <- now;
  st.last_false_blocks <- Tcar.false_blocks_in t.car st.seg

(* ---------- car-wide ---------- *)

let check_gateways t =
  let topo = Tcar.topology t.car in
  List.iter
    (fun name ->
      let backlog = Can.Gateway.in_flight (Can.Topology.gateway topo name) in
      if backlog > bound.max_gateway_backlog then
        fail t ~check:"blast_gateway_backlog"
          (Printf.sprintf "gateway %s: %d forwards in flight (bound %d)" name
             backlog bound.max_gateway_backlog))
    (Can.Topology.gateway_names topo)

let check_failsafe_deadline t =
  match Harness.stall_started t.harness with
  | None -> ()
  | Some stall_at -> (
      let now = Engine.now (Tcar.sim t.car) in
      let bound = Harness.failsafe_bound t.harness ~stall_at in
      match Harness.failsafe_entered t.harness with
      | Some entered when entered <= bound -> ()
      | Some entered ->
          fail t ~check:"failsafe_deadline"
            (Printf.sprintf
               "fail-safe entered at %.4fs, after the %.4fs bound" entered
               bound)
      | None ->
          if now > bound then
            fail t ~check:"failsafe_deadline"
              (Printf.sprintf
                 "policy engine stalled at %.4fs; still not fail-safe at \
                  %.4fs (bound %.4fs)"
                 stall_at now bound))

let check t =
  let now = Engine.now (Tcar.sim t.car) in
  let faulted = Harness.faulted t.harness in
  List.iter
    (fun st ->
      check_counters t st;
      check_deliveries t st;
      if List.mem st.seg faulted then keep_warm t st ~now
      else check_contained t st ~now)
    t.segs;
  check_gateways t;
  check_failsafe_deadline t

(* ---------- end-of-run checks ---------- *)

let state_fields (s : State.t) =
  [
    ("mode", Modes.name s.State.mode);
    ("ev_ecu_enabled", string_of_bool s.State.ev_ecu_enabled);
    ("engine_running", string_of_bool s.State.engine_running);
    ("eps_active", string_of_bool s.State.eps_active);
    ("doors_locked", string_of_bool s.State.doors_locked);
    ("alarm_armed", string_of_bool s.State.alarm_armed);
    ("modem_enabled", string_of_bool s.State.modem_enabled);
    ("tracking_enabled", string_of_bool s.State.tracking_enabled);
    ("failsafe_latched", string_of_bool s.State.failsafe_latched);
    ("speed_kmh", Printf.sprintf "%.3f" s.State.speed_kmh);
    ("software_installs", string_of_int s.State.software_installs);
    ("emergency_calls", string_of_int s.State.emergency_calls);
  ]

let delivered_after t seg ~time =
  Can.Trace.count
    (Can.Bus.trace (Tcar.bus t.car seg))
    (fun e ->
      e.Can.Trace.time > time
      &&
      match e.Can.Trace.event with
      | Can.Trace.Rx_delivered _ -> true
      | _ -> false)

(* A healed segment must come back: deliveries resume between the heal
   and the horizon. *)
let check_recovery t seg ~cleared =
  if delivered_after t seg ~time:cleared = 0 then
    fail t ~check:"blast_recovery"
      (Printf.sprintf "segment %s: no deliveries after healing at %.3fs" seg
         cleared)

(* Limp-home is fail-closed: after failover the cut-off segments may only
   receive the minimal crossing whitelist or traffic produced inside
   them. *)
let check_limp_home t seg ~cleared =
  let topo = Tcar.topology t.car in
  let local_ids =
    List.concat_map
      (fun node ->
        List.map (fun (m : Messages.t) -> m.id) (Messages.produced_by node))
      (Can.Topology.members topo seg)
  in
  let allowed = Segment_map.minimal_crossing_ids () @ local_ids in
  Can.Trace.entries (Can.Bus.trace (Tcar.bus t.car seg))
  |> List.iter (fun e ->
         match e.Can.Trace.event with
         | Can.Trace.Rx_delivered _ when e.Can.Trace.time > cleared -> (
             match e.Can.Trace.frame.Can.Frame.id with
             | Can.Identifier.Standard id ->
                 if not (List.mem id allowed) then
                   fail t ~check:"limp_home"
                     (Printf.sprintf
                        "segment %s: 0x%03X delivered at %.3fs after \
                         fail-closed failover"
                        seg id e.Can.Trace.time)
             | Can.Identifier.Extended _ ->
                 fail t ~check:"limp_home"
                   (Printf.sprintf
                      "segment %s: extended frame crossed after failover" seg))
         | _ -> ())

let finalize t ~reference =
  check t;
  let car = t.car in
  let state = Tcar.state car in
  if Plan.degrading (Harness.plan t.harness) then begin
    if Tcar.mode car <> Modes.Fail_safe then
      fail t ~check:"latched"
        (Printf.sprintf "degrading plan ended in %s, not fail-safe"
           (Modes.name (Tcar.mode car)));
    if not state.State.failsafe_latched then
      fail t ~check:"latched" "fail-safe actions were never latched";
    if Harness.failsafe_entered t.harness = None then
      fail t ~check:"latched" "harness never recorded the fail-safe entry"
  end
  else
    (* every fault recovered: the run must land on the same steady state a
       never-faulted car reaches *)
    List.iter2
      (fun (name, faulted) (_, clean) ->
        if faulted <> clean then
          fail t ~check:"convergence"
            (Printf.sprintf "%s diverged: %s (faulted) vs %s (clean)" name
               faulted clean))
      (state_fields state)
      (state_fields (Tcar.state reference));
  List.iter
    (fun (r : Harness.record) ->
      match (r.Harness.entry.Plan.kind, r.Harness.cleared_at) with
      | (Fault.Segment_partition _ | Fault.Segment_babble _), Some cleared ->
          List.iter (check_recovery t ~cleared) r.Harness.region
      | Fault.Gateway_crash _, Some cleared ->
          List.iter (check_limp_home t ~cleared) r.Harness.region
      | _ -> ())
    (Harness.records t.harness)
