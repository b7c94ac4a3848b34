(* Failure injection and determinism: the simulator under line noise, and
   reproducibility guarantees the whole evaluation relies on. *)

module V = Secpol_vehicle
module Car = V.Car
module State = V.State
module Names = V.Names
module Messages = V.Messages
module Scenarios = Secpol_attack.Scenarios
module Catalog = V.Threat_catalog
module Node = Secpol_can.Node
module Controller = Secpol_can.Controller
module Errors = Secpol_can.Errors
module Trace = Secpol_can.Trace

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* ---------- Determinism ---------- *)

let state_fingerprint (s : State.t) =
  Format.asprintf "%a|%d|%d" State.pp s s.software_installs s.emergency_calls

let trace_fingerprint car =
  List.map
    (fun (e : Trace.entry) ->
      Format.asprintf "%.9f %s %a %s" e.time e.node Secpol_can.Frame.pp e.frame
        (Trace.event_name e.event))
    (Trace.entries (Car.trace car))

let test_same_seed_same_run () =
  let run () =
    let car = Car.create ~seed:7L ~corrupt_prob:0.01 () in
    Car.run car ~seconds:2.0;
    (state_fingerprint car.Car.state, trace_fingerprint car)
  in
  let s1, t1 = run () in
  let s2, t2 = run () in
  check Alcotest.string "same state" s1 s2;
  check Alcotest.int "same trace length" (List.length t1) (List.length t2);
  List.iter2 (fun a b -> check Alcotest.string "same trace entry" a b) t1 t2

let test_different_seed_different_noise () =
  let errors seed =
    let car = Car.create ~seed ~corrupt_prob:0.05 () in
    Car.run car ~seconds:2.0;
    Trace.count (Car.trace car) (fun e -> e.Trace.event = Trace.Tx_error)
  in
  (* same noise rate, different draws *)
  Alcotest.(check bool) "noise actually drawn" true (errors 1L > 0);
  Alcotest.(check bool) "seeds shape the run" true (errors 1L <> errors 99L)

(* ---------- Line noise ---------- *)

let test_noisy_bus_function_retained () =
  let car = Car.create ~corrupt_prob:0.02 () in
  Car.run car ~seconds:3.0;
  let s = car.Car.state in
  Alcotest.(check bool) "ecu healthy" true s.State.ev_ecu_enabled;
  Alcotest.(check bool) "engine running" true s.State.engine_running;
  (* retransmissions happened... *)
  Alcotest.(check bool) "errors observed" true
    (Trace.count (Car.trace car) (fun e -> e.Trace.event = Trace.Tx_error) > 0);
  (* ...and nobody fell off the bus at this noise level *)
  List.iter
    (fun name ->
      let errs = Controller.errors (Node.controller (Car.node car name)) in
      Alcotest.(check bool) (name ^ " not bus-off") true
        (Errors.state errs <> Errors.Bus_off))
    Names.nodes

let test_noisy_bus_crash_chain_still_works () =
  let car = Car.create ~corrupt_prob:0.02 () in
  Car.run car ~seconds:0.5;
  V.Safety.trigger_crash (Car.node car Names.safety) car.Car.state;
  Car.run car ~seconds:1.0;
  Alcotest.(check bool) "failsafe latched" true car.Car.state.State.failsafe_latched;
  Alcotest.(check bool) "doors unlocked" false car.Car.state.State.doors_locked;
  check Alcotest.int "emergency call placed" 1 car.Car.state.State.emergency_calls

let test_hpe_enforcement_under_noise () =
  (* the headline spoofing attack on a noisy bus: retransmission gets the
     forged frame through eventually without enforcement, while the HPE
     blocks it at the source regardless of line conditions *)
  let attack enforcement =
    let car = Car.create ~corrupt_prob:0.05 ~enforcement () in
    Car.run car ~seconds:0.3;
    let node = Car.node car Names.infotainment in
    Controller.set_filters (Node.controller node) [];
    for _ = 1 to 20 do
      ignore
        (Node.send node
           (Secpol_can.Frame.data_std Messages.ecu_command
              (String.make 1 Messages.cmd_disable)))
    done;
    Car.run car ~seconds:1.0;
    car.Car.state.State.ev_ecu_enabled
  in
  Alcotest.(check bool) "lands through the noise unprotected" false
    (attack Car.Software_filters);
  Alcotest.(check bool) "still blocked by the HPE" true
    (attack (Car.Hpe (V.Policy_map.baseline ())))

let test_extreme_noise_starves_the_bus () =
  let car = Car.create ~corrupt_prob:0.9 () in
  Car.run car ~seconds:1.0;
  (* almost nothing gets through; retry budgets exhaust *)
  Alcotest.(check bool) "abandonments" true
    (Trace.count (Car.trace car) (fun e -> e.Trace.event = Trace.Tx_abandoned) > 0)

(* ---------- Stress ---------- *)

let test_priority_storm_ordering () =
  (* 500 frames of random priority queued at once drain in priority order *)
  let sim = Secpol_sim.Engine.create () in
  let bus = Secpol_can.Bus.create ~bitrate:1_000_000.0 sim in
  let tx = Node.create ~name:"tx" bus in
  let rx = Node.create ~name:"rx" bus in
  let rng = Secpol_sim.Rng.create 3L in
  (* distinct ids so the expected order is unambiguous *)
  let ids = Array.init 500 (fun i -> i) in
  Secpol_sim.Rng.shuffle rng ids;
  Array.iter
    (fun id -> ignore (Node.send tx (Secpol_can.Frame.data_std id "")))
    ids;
  Secpol_sim.Engine.run_until sim 10.0;
  let received =
    List.map
      (fun (f : Secpol_can.Frame.t) -> Secpol_can.Identifier.raw f.id)
      (Node.received rx)
  in
  check Alcotest.int "all delivered" 500 (List.length received);
  (* after the first frame (whatever won while the bus was idle), the rest
     drain lowest-id-first among what was pending: the tail is sorted *)
  match received with
  | _first :: rest ->
      Alcotest.(check bool) "priority order" true
        (List.sort compare rest = rest)
  | [] -> Alcotest.fail "nothing delivered"

let test_long_run_stability () =
  let car = Car.create () in
  Car.run car ~seconds:60.0;
  Alcotest.(check bool) "still healthy after a minute" true
    car.Car.state.State.ev_ecu_enabled;
  Alcotest.(check bool) "thousands of frames" true
    (Secpol_can.Bus.frames_sent car.Car.bus > 8_000)

(* ---------- fault plans, watchdog, chaos campaigns ---------- *)

module F = Secpol_faults
module Json = Secpol_policy.Json
module Engine = Secpol_sim.Engine
module Tcar = V.Topology_car

let test_watchdog_trips_and_rearms () =
  let sim = Engine.create () in
  let clock = F.Clock.create sim in
  let healthy = ref true in
  let expired = ref 0 in
  let wd =
    F.Watchdog.create ~period:0.01 ~deadline:0.05 ~clock
      ~ping:(fun () -> !healthy)
      ~on_expire:(fun () -> incr expired)
      sim
  in
  Engine.run_until sim 0.2;
  check Alcotest.int "no trip while healthy" 0 (F.Watchdog.trips wd);
  Engine.schedule sim ~at:0.3 (fun _ -> healthy := false);
  Engine.schedule sim ~at:0.5 (fun _ -> healthy := true);
  Engine.run_until sim 1.0;
  check Alcotest.int "tripped once" 1 (F.Watchdog.trips wd);
  check Alcotest.int "on_expire fired once" 1 !expired;
  Alcotest.(check bool) "re-armed after recovery" false (F.Watchdog.tripped wd);
  (match F.Watchdog.detections wd with
  | [ (at, mttd) ] ->
      (* failing from 0.30: first failed ping 0.31, trip at deadline past
         the last healthy ping (0.30): 0.35; detection latency ~40 ms *)
      Alcotest.(check bool) "trip time in window" true (at > 0.3 && at <= 0.36);
      Alcotest.(check bool) "mttd positive and bounded" true
        (mttd > 0.0 && mttd <= 0.06)
  | l -> Alcotest.fail (Printf.sprintf "%d detections" (List.length l)));
  (* a second outage trips again *)
  Engine.schedule sim ~at:1.2 (fun _ -> healthy := false);
  Engine.run_until sim 2.0;
  check Alcotest.int "second trip" 2 (F.Watchdog.trips wd)

let test_clock_skew_continuity () =
  let sim = Engine.create () in
  let clock = F.Clock.create sim in
  Engine.schedule sim ~at:1.0 (fun _ -> F.Clock.set_factor clock 0.5);
  Engine.run_until sim 1.0;
  check Alcotest.(float 1e-9) "synchronised before skew" 1.0 (F.Clock.now clock);
  Engine.run_until sim 3.0;
  (* 1 s at rate 1, then 2 s at rate 0.5 *)
  check Alcotest.(float 1e-9) "half rate after" 2.0 (F.Clock.now clock);
  Alcotest.check_raises "rejects non-positive factor"
    (Invalid_argument "Clock.set_factor: factor must be positive") (fun () ->
      F.Clock.set_factor clock 0.0)

let test_plan_generation_deterministic () =
  let p1 = F.Plan.generate ~seed:5L ~horizon:4.0 () in
  let p2 = F.Plan.generate ~seed:5L ~horizon:4.0 () in
  let p3 = F.Plan.generate ~seed:6L ~horizon:4.0 () in
  let fingerprint p =
    List.map
      (fun (e : F.Plan.entry) ->
        Printf.sprintf "%.6f %s" e.F.Plan.at (F.Fault.label e.F.Plan.kind))
      p.F.Plan.entries
  in
  Alcotest.(check (list string)) "same seed, same plan" (fingerprint p1)
    (fingerprint p2);
  Alcotest.(check bool) "different seed, different plan" true
    (fingerprint p1 <> fingerprint p3);
  (match F.Plan.validate p1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "generated plans recover" false (F.Plan.degrading p1);
  List.iter
    (fun name ->
      match F.Plan.of_name name with
      | Some p -> (
          match F.Plan.validate p with
          | Ok () -> ()
          | Error e -> Alcotest.fail (name ^ ": " ^ e))
      | None -> Alcotest.fail ("unknown named plan " ^ name))
    F.Plan.named;
  match
    F.Plan.validate
      {
        F.Plan.name = "bad";
        horizon = 1.0;
        entries =
          [ { F.Plan.at = 2.0; kind = F.Fault.Policy_stall { down_for = 0.1 } } ];
      }
  with
  | Ok () -> Alcotest.fail "accepted an entry past the horizon"
  | Error _ -> ()

(* The acceptance experiment: kill the policy engine mid-run; the watchdog
   must drive the car into fail-safe within the configured deadline, no
   unapproved frame may ever be granted, and the whole thing must hold
   across distinct seeds. *)
let chaos_stall_enters_failsafe seed () =
  let plan = Option.get (F.Plan.of_name ~horizon:2.0 "stall") in
  let o = F.Chaos.run ~seed ~plan () in
  List.iter
    (fun (v : F.Invariant.violation) ->
      Printf.printf "violation: %s %s\n" v.F.Invariant.check v.F.Invariant.detail)
    (F.Invariant.violations o.F.Chaos.checker);
  Alcotest.(check bool) "all invariants held" true o.F.Chaos.passed;
  let h = o.F.Chaos.harness in
  let stall_at =
    match F.Harness.stall_started h with
    | Some s -> s
    | None -> Alcotest.fail "stall never injected"
  in
  let entered =
    match F.Harness.failsafe_entered h with
    | Some e -> e
    | None -> Alcotest.fail "never entered fail-safe"
  in
  let bound = F.Harness.failsafe_bound h ~stall_at in
  Alcotest.(check bool) "after the stall" true (entered >= stall_at);
  Alcotest.(check bool) "within the degradation deadline" true
    (entered <= bound);
  let car = F.Harness.car h in
  Alcotest.(check bool) "latched in fail-safe" true
    (Tcar.mode car = V.Modes.Fail_safe
    && (Tcar.state car).State.failsafe_latched);
  check Alcotest.int "watchdog detected exactly one outage" 1
    (F.Watchdog.trips (F.Harness.watchdog h));
  (* report says the same thing, machine-readably *)
  let r = o.F.Chaos.report in
  Alcotest.(check (option string)) "verdict" (Some "pass")
    (Option.bind (Json.member "verdict" r) Json.to_str);
  let latency =
    Option.bind (Json.member "failsafe" r) (fun fs ->
        Json.member "latency_ms" fs)
  in
  (match latency with
  | Some (Json.Float ms) -> Alcotest.(check bool) "latency > 0" true (ms > 0.0)
  | _ -> Alcotest.fail "no fail-safe latency in report");
  match Option.bind (Json.member "mttd_ms" r) (Json.member "count") with
  | Some (Json.Int n) -> Alcotest.(check bool) "MTTD recorded" true (n >= 1)
  | _ -> Alcotest.fail "no MTTD histogram in report"

(* Recovery SLO: every fault in a recoverable plan clears, MTTR lands in
   the report, and the end state equals a never-faulted run's. *)
let chaos_recoverable_converges plan_name seed () =
  let plan = Option.get (F.Plan.of_name ~seed ~horizon:3.0 plan_name) in
  let o = F.Chaos.run ~seed ~plan () in
  List.iter
    (fun (v : F.Invariant.violation) ->
      Printf.printf "violation: %s %s\n" v.F.Invariant.check v.F.Invariant.detail)
    (F.Invariant.violations o.F.Chaos.checker);
  Alcotest.(check bool) "all invariants held" true o.F.Chaos.passed;
  let car = F.Harness.car o.F.Chaos.harness in
  Alcotest.(check bool) "still in normal mode" true
    (Tcar.mode car = V.Modes.Normal);
  List.iter
    (fun (r : F.Harness.record) ->
      Alcotest.(check bool)
        (F.Fault.label r.F.Harness.entry.F.Plan.kind ^ " injected")
        true
        (r.F.Harness.injected_at <> None);
      Alcotest.(check bool)
        (F.Fault.label r.F.Harness.entry.F.Plan.kind ^ " recovered")
        true
        (r.F.Harness.cleared_at <> None))
    (F.Harness.records o.F.Chaos.harness);
  let r = o.F.Chaos.report in
  match Option.bind (Json.member "mttr_ms" r) (Json.member "count") with
  | Some (Json.Int n) ->
      check Alcotest.int "every fault has an MTTR sample"
        (List.length plan.F.Plan.entries)
        n
  | _ -> Alcotest.fail "no MTTR histogram in report"

let test_chaos_skewed_stall_still_bounded () =
  let plan = Option.get (F.Plan.of_name ~horizon:2.0 "skewed-stall") in
  let o = F.Chaos.run ~seed:31L ~plan () in
  Alcotest.(check bool) "all invariants held" true o.F.Chaos.passed;
  let h = o.F.Chaos.harness in
  check Alcotest.(float 1e-9) "skew recorded" 0.5 (F.Harness.min_clock_factor h);
  let stall_at = Option.get (F.Harness.stall_started h) in
  let entered = Option.get (F.Harness.failsafe_entered h) in
  (* the slow clock stretches detection beyond the unskewed worst case but
     stays inside the skew-adjusted bound *)
  Alcotest.(check bool) "slower than unskewed worst case" true
    (entered -. stall_at > 0.06);
  Alcotest.(check bool) "inside the skew-adjusted bound" true
    (entered <= F.Harness.failsafe_bound h ~stall_at)

let test_bus_wide_faults_need_one_bus () =
  (* a segment fault puts the plan on the four-segment car, where a
     babbling idiot or a corruption burst names no bus to hit: the
     harness must refuse the plan instead of picking one *)
  let horizon = 2.0 in
  let storm = F.Plan.storm ~horizon in
  let babble = F.Plan.segment_babble ~horizon in
  let plan =
    {
      F.Plan.name = "storm+segment-babble";
      horizon;
      entries = storm.F.Plan.entries @ babble.F.Plan.entries;
    }
  in
  Alcotest.(check bool) "segment-scoped" true (F.Plan.segment_scoped plan);
  (match F.Harness.create ~seed:7L ~plan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bus-wide faults accepted on a four-segment car");
  (* the same faults alone run on the flat car, which has one bus *)
  ignore (F.Harness.create ~seed:7L ~plan:storm ())

let test_stall_needs_policy_engine () =
  (* central placement builds no policy engine, so a stall plan has
     nothing to stall: refused up front, naming the placement *)
  let plan = F.Plan.stall ~horizon:2.0 in
  (match F.Harness.create ~placement:`Central ~seed:7L ~plan () with
  | exception Invalid_argument msg ->
      let needle = "central placement" in
      let rec scan i =
        i + String.length needle <= String.length msg
        && (String.sub msg i (String.length needle) = needle || scan (i + 1))
      in
      Alcotest.(check bool) "message names the placement" true (scan 0)
  | _ -> Alcotest.fail "stall accepted on a car without a policy engine");
  (* an HPE fault on a node without an HPE stays a no-op: mixed plans
     draw it at random *)
  let plan = F.Plan.hpe_corruption ~horizon:2.0 in
  let o = F.Chaos.run ~placement:`Central ~seed:7L ~plan () in
  Alcotest.(check bool) "hpe corruption without HPEs passes" true
    o.F.Chaos.passed

let test_invariant_catches_unapproved_delivery () =
  (* the safety net must not be vacuous: hand the checker a fabricated
     unapproved delivery and it has to object *)
  let plan = { F.Plan.name = "quiet"; horizon = 1.0; entries = [] } in
  let h = F.Harness.create ~seed:3L ~plan () in
  let checker = F.Invariant.create h in
  F.Harness.run_until h 0.5;
  F.Invariant.check checker;
  Alcotest.(check bool) "clean so far" true (F.Invariant.ok checker);
  let car = F.Harness.car h in
  Secpol_can.Trace.record
    (Secpol_can.Bus.trace (Tcar.bus car V.Segment_map.seg_bus))
    ~time:(Engine.now (Tcar.sim car))
    ~node:"intruder"
    (Secpol_can.Frame.data_std 0x7DF "")
    (Trace.Rx_delivered Names.ev_ecu);
  F.Invariant.check checker;
  match F.Invariant.violations checker with
  | [ v ] ->
      check Alcotest.string "right check fired" "approved_rx"
        v.F.Invariant.check
  | l -> Alcotest.fail (Printf.sprintf "%d violations" (List.length l))

let test_chaos_deterministic () =
  let run () =
    let plan = Option.get (F.Plan.of_name ~seed:17L ~horizon:2.0 "mixed") in
    let o = F.Chaos.run ~seed:17L ~plan () in
    (* the telemetry snapshot embeds wall-clock decision latencies; all
       simulation-time results must be bit-identical across runs *)
    match o.F.Chaos.report with
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.filter (fun (k, _) -> k <> "telemetry") fields))
    | j -> Json.to_string j
  in
  check Alcotest.string "same (seed, plan), same report" (run ()) (run ())

let () =
  Alcotest.run "secpol_faults"
    [
      ( "determinism",
        [
          quick "same seed, same run" test_same_seed_same_run;
          quick "different seeds differ" test_different_seed_different_noise;
        ] );
      ( "noise",
        [
          slow "function retained" test_noisy_bus_function_retained;
          slow "crash chain under noise" test_noisy_bus_crash_chain_still_works;
          slow "enforcement under noise" test_hpe_enforcement_under_noise;
          quick "extreme noise" test_extreme_noise_starves_the_bus;
        ] );
      ( "stress",
        [
          quick "priority storm" test_priority_storm_ordering;
          slow "long run" test_long_run_stability;
        ] );
      ( "watchdog",
        [
          quick "trips and re-arms" test_watchdog_trips_and_rearms;
          quick "skewable clock" test_clock_skew_continuity;
        ] );
      ( "plans",
        [
          quick "seeded generation" test_plan_generation_deterministic;
          quick "bus-wide faults need one bus"
            test_bus_wide_faults_need_one_bus;
          quick "stall needs a policy engine" test_stall_needs_policy_engine;
          quick "checker not vacuous" test_invariant_catches_unapproved_delivery;
        ] );
      ( "chaos",
        [
          slow "stall -> fail-safe (seed 11)" (chaos_stall_enters_failsafe 11L);
          slow "stall -> fail-safe (seed 23)" (chaos_stall_enters_failsafe 23L);
          slow "skewed stall bounded" test_chaos_skewed_stall_still_bounded;
          slow "crash recovers (seed 11)"
            (chaos_recoverable_converges "crash" 11L);
          slow "crash recovers (seed 23)"
            (chaos_recoverable_converges "crash" 23L);
          slow "storm recovers" (chaos_recoverable_converges "storm" 7L);
          slow "partition recovers" (chaos_recoverable_converges "partition" 7L);
          slow "hpe corruption recovers"
            (chaos_recoverable_converges "hpe-corruption" 7L);
          slow "mixed recovers (seed 41)"
            (chaos_recoverable_converges "mixed" 41L);
          slow "deterministic campaigns" test_chaos_deterministic;
        ] );
    ]
