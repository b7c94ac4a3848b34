(* Tests for the fleet campaign engine: vehicle instances over shared
   tables, threat-trigger plans, verifier-gated staged rollouts and the
   determinism of the whole report across seeds and domain counts. *)

module Campaign = Secpol_lifecycle.Campaign
module Ota = Secpol_lifecycle.Ota
module Instance = Secpol_vehicle.Instance
module Policy_map = Secpol_vehicle.Policy_map
module Names = Secpol_vehicle.Names
module Messages = Secpol_vehicle.Messages
module Plan = Secpol_faults.Plan
module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Json = Secpol_policy.Json
module Rng = Secpol_sim.Rng

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

let decision =
  Alcotest.testable
    (fun ppf d ->
      Format.pp_print_string ppf
        (match d with Ast.Allow -> "allow" | Ast.Deny -> "deny"))
    ( = )

let hardened_db = lazy (Policy_map.compile (Policy_map.hardened ~version:2 ()))

let hardened_table =
  lazy (Table.compile ~strategy:Table.Deny_overrides (Lazy.force hardened_db))

let lock_req =
  {
    Ir.mode = "normal";
    subject = Names.asset_connectivity;
    asset = Names.door_locks;
    op = Ir.Write;
    msg_id = Some Messages.lock_command;
  }

(* One vehicle decision routed as a campaign routes it: the request
   resolved against the version's shared table, its rated rules walked
   against the vehicle's own windows. *)
let vehicle_decide inst ~now req =
  Instance.decide inst
    (Table.resolve (Lazy.force hardened_table) req)
    ~subject:req.Ir.subject ~now

(* ---------- Instance ---------- *)

let test_instance_state () =
  let i = Instance.create ~id:7 ~version:1 () in
  check Alcotest.int "id" 7 (Instance.id i);
  check Alcotest.int "version" 1 (Instance.version i);
  check Alcotest.string "mode" "normal" (Instance.mode i);
  Instance.set_mode i "fail_safe";
  check Alcotest.string "mode set" "fail_safe" (Instance.mode i);
  Instance.install i ~version:2;
  check Alcotest.int "installed" 2 (Instance.version i)

(* the hardened lock budget is 2 per 10 s: a 3-frame burst sheds its
   third frame, per vehicle, not per fleet *)
let test_instance_budgets_are_private () =
  let a = Instance.create ~id:0 ~version:2 () in
  let b = Instance.create ~id:1 ~version:2 () in
  let burst inst =
    List.init 3 (fun k -> vehicle_decide inst ~now:(float_of_int k) lock_req)
  in
  check (Alcotest.list decision) "a's burst shaped"
    [ Ast.Allow; Ast.Allow; Ast.Deny ] (burst a);
  (* a's consumption must not have touched b *)
  check (Alcotest.list decision) "b unaffected"
    [ Ast.Allow; Ast.Allow; Ast.Deny ] (burst b);
  check Alcotest.int "one window live per vehicle" 1 (Instance.live_budgets a)

let test_instance_install_resets_budgets () =
  let i = Instance.create ~id:0 ~version:2 () in
  for k = 0 to 2 do
    ignore (vehicle_decide i ~now:(float_of_int k) lock_req)
  done;
  check decision "budget exhausted" Ast.Deny
    (vehicle_decide i ~now:3.0 lock_req);
  Instance.install i ~version:3;
  check Alcotest.int "budgets dropped" 0 (Instance.live_budgets i);
  check decision "fresh budget after install" Ast.Allow
    (vehicle_decide i ~now:4.0 lock_req)

(* a vehicle's rows must agree with a private Engine fed the same request
   sequence — same Deny_overrides fold, same window semantics *)
let test_instance_matches_engine () =
  let db = Lazy.force hardened_db in
  let fail_safe_attack = { lock_req with Ir.mode = "fail_safe" } in
  let unknown = { lock_req with Ir.subject = "infotainment" } in
  let sequence =
    [
      (0.0, lock_req);
      (0.1, lock_req);
      (0.2, lock_req);
      (* deny rules never consume budget *)
      (0.3, fail_safe_attack);
      (* one window later the budget has rolled over *)
      (11.0, lock_req);
      (11.1, unknown);
    ]
  in
  let inst = Instance.create ~id:0 ~version:2 () in
  let engine = Engine.create db in
  List.iteri
    (fun k (now, req) ->
      let expected = (Engine.decide ~now engine req).Engine.decision in
      let got = vehicle_decide inst ~now req in
      check decision (Printf.sprintf "step %d" k) expected got)
    sequence

(* Random traffic for two interleaved vehicles on the hardened policy:
   rated lock writes from both lock producers, the fail_safe deny, other
   door-lock traffic, subjects the policy never names, and clock steps
   that straddle the 10 s window or run backwards. *)
let vehicle_step_gen =
  QCheck.Gen.(
    let* vehicle = 0 -- 1 in
    let* dt =
      oneofl [ 0.0; 0.1; 1.0; 4.99; 5.0; 9.99; 10.0; 10.01; 12.5; -0.5; -11.0 ]
    in
    let* req =
      frequency
        [
          (6, return lock_req);
          (2, return { lock_req with Ir.subject = "safety" });
          (2, return { lock_req with Ir.mode = "fail_safe" });
          ( 3,
            let* subject =
              oneofl
                [
                  Names.asset_connectivity;
                  "safety";
                  "rogue_ecu";
                  "infotainment";
                ]
            in
            let* mode =
              oneofl [ "normal"; "fail_safe"; "remote_diagnostic"; "workshop" ]
            in
            let* op = oneofl [ Ir.Read; Ir.Write ] in
            let* msg_id =
              oneofl
                [ None; Some Messages.lock_command; Some Messages.door_status ]
            in
            return { Ir.mode; subject; asset = Names.door_locks; op; msg_id } );
        ]
    in
    return (vehicle, dt, req))

let prop_vehicles_match_private_engines =
  QCheck.Test.make ~count:300
    ~name:"vehicle rows = private engine, per vehicle, install resets"
    QCheck.(make Gen.(list_size (1 -- 40) vehicle_step_gen))
    (fun steps ->
      let db = Lazy.force hardened_db in
      let insts = Array.init 2 (fun id -> Instance.create ~id ~version:2 ()) in
      let clock = ref 100.0 in
      let timed =
        List.map
          (fun (v, dt, req) ->
            clock := !clock +. dt;
            (v, !clock, req))
          steps
      in
      (* each vehicle against an engine that sees only its own traffic:
         a window shared between the vehicles would show as a divergence *)
      let agree () =
        let engines = Array.init 2 (fun _ -> Engine.create db) in
        List.for_all
          (fun (v, now, req) ->
            (Engine.decide ~now engines.(v) req).Engine.decision
            = vehicle_decide insts.(v) ~now req)
          timed
      in
      let first = agree () in
      (* replaying the same clock again only agrees with fresh engines if
         install really dropped every window *)
      Array.iter (fun i -> Instance.install i ~version:2) insts;
      first
      && Array.for_all (fun i -> Instance.live_budgets i = 0) insts
      && agree ())

(* ---------- Plan.threat_trigger ---------- *)

let test_threat_trigger_plan () =
  let p = Plan.threat_trigger ~at:6.0 ~horizon:30.0 () in
  (match Plan.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plan invalid: %s" e);
  (match Plan.threat_window p with
  | Some (on, off, msg_id) ->
      check (Alcotest.float 1e-9) "activation" 6.0 on;
      check (Alcotest.float 1e-9) "clearance at horizon" 30.0 off;
      check Alcotest.int "attack vector" Messages.lock_command msg_id
  | None -> Alcotest.fail "no threat window");
  check Alcotest.bool "not degrading" false (Plan.degrading p);
  Alcotest.check_raises "activation past horizon"
    (Invalid_argument "Plan.threat_trigger: activation outside [0, horizon)")
    (fun () -> ignore (Plan.threat_trigger ~at:30.0 ~horizon:30.0 ()))

let test_threat_window_absent () =
  check Alcotest.bool "stall plan has no window" true
    (Plan.threat_window (Plan.stall ~horizon:4.0) = None)

(* ---------- Campaign runs ---------- *)

let small_config ?(fleet = 1_500) ?(seed = 11L) ?(domains = 1) () =
  Campaign.default_config ~fleet ~seed ~domains ~quick:true ()

let run_ok ?old_policy ?new_policy cfg =
  match Campaign.run ?old_policy ?new_policy cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" e

let test_campaign_completes () =
  let cfg = small_config () in
  let r = run_ok cfg in
  check Alcotest.bool "gate passed" true r.Campaign.gate.Campaign.passed;
  check Alcotest.int "no widenings" 0 r.Campaign.gate.Campaign.widened;
  List.iter
    (fun (s : Campaign.stage_report) ->
      check Alcotest.bool (s.Campaign.stage.Campaign.name ^ " started") true
        s.Campaign.started)
    r.Campaign.stages;
  check Alcotest.int "three stages" 3 (List.length r.Campaign.stages);
  check Alcotest.int "stages cover the fleet" cfg.Campaign.adoption.Ota.fleet
    (List.fold_left
       (fun acc (s : Campaign.stage_report) -> acc + s.Campaign.vehicles)
       0 r.Campaign.stages);
  check Alcotest.int "versions cover the fleet" cfg.Campaign.adoption.Ota.fleet
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Campaign.versions);
  (* designed traffic stays designed under both versions *)
  check Alcotest.int "no benign denial" 0 r.Campaign.benign_denied;
  (* per-vehicle budgets shape the 3-frame bursts once hardened *)
  check Alcotest.bool "bursts shaped" true (r.Campaign.lock_denied > 0);
  check Alcotest.int "ota mitigation accounted" cfg.Campaign.adoption.Ota.fleet
    (r.Campaign.ota.Campaign.mitigated + r.Campaign.ota.Campaign.never);
  check Alcotest.bool "most of the fleet mitigated" true
    (r.Campaign.ota.Campaign.mitigated > cfg.Campaign.adoption.Ota.fleet * 9 / 10);
  check Alcotest.bool "ota beats recall at the median" true
    (r.Campaign.ota.Campaign.p50_days < r.Campaign.recall.Campaign.p50_days);
  check Alcotest.bool "an order of magnitude faster" true
    (r.Campaign.speedup_p50 >= 10.0)

let strip_volatile = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter
           (fun (k, _) ->
             k <> "elapsed_s" && k <> "throughput_per_s" && k <> "domains")
           fields)
  | j -> j

let report_fingerprint r = Json.to_string (strip_volatile (Campaign.to_json r))

let test_campaign_deterministic () =
  let a = run_ok (small_config ()) in
  let b = run_ok (small_config ()) in
  check Alcotest.string "same seed, same report" (report_fingerprint a)
    (report_fingerprint b);
  let c = run_ok (small_config ~seed:12L ()) in
  check Alcotest.bool "different seed, different report" true
    (report_fingerprint a <> report_fingerprint c)

let test_campaign_domain_count_invariant () =
  let a = run_ok (small_config ~domains:1 ()) in
  let b = run_ok (small_config ~domains:3 ()) in
  check Alcotest.string "1 domain == 3 domains" (report_fingerprint a)
    (report_fingerprint b)

(* MD5s of three reports, recorded before vehicles decided rows of the
   shared tables (traffic was then queued into per-version lanes and the
   lock bursts folded by hand): how decisions are routed is not part of a
   report, so no routing change may move one byte of these.  Re-recorded
   once, when each vehicle's two streams became [Rng.keyed]'s (before,
   a vehicle's second rollout draw was its neighbour's first). *)
let test_campaign_identity () =
  let digest r = Digest.to_hex (Digest.string (report_fingerprint r)) in
  check Alcotest.string "1500 vehicles, seed 11, quick"
    "8efba8e9eaffccf7373d1fcbfb3ae5ab"
    (digest (run_ok (small_config ())));
  check Alcotest.string "3000 vehicles, seed 3, full tick"
    "5e091ec5917a13024486509b424a8da3"
    (digest (run_ok (Campaign.default_config ~fleet:3000 ~seed:3L ())));
  check Alcotest.string "refused gate (permissive update)"
    "0120491c5a449ef1804171a9c1b7b180"
    (digest
       (run_ok
          ~new_policy:(Policy_map.permissive ~version:2 ())
          (small_config ~fleet:600 ())))

(* ---------- a seeded corpus ---------- *)

(* A seeded mutation of [policy]: each allow becomes a deny (its rate
   dropped, as a deny must) with probability 1/5, or is rated at 1-3
   grants over a window from 1 s to 46 days with probability 1/4, so
   some windows outlast a whole benign cycle.  Denies are kept. *)
let mutate rng (p : Ast.policy) =
  let rule (r : Ast.rule) =
    if r.Ast.decision <> Ast.Allow then r
    else
      let u = Rng.float rng 1.0 in
      if u < 0.2 then { r with Ast.decision = Ast.Deny; rate = None }
      else if u < 0.45 then begin
        let count = Rng.int_in rng 1 3 in
        let window_s = exp (Rng.float rng (log (46.0 *. 86_400.0))) in
        let window_ms = int_of_float (1000.0 *. window_s) in
        { r with Ast.rate = Some (Ast.rate_limit ~count ~window_ms) }
      end
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

(* One corpus case: a fleet of 1-400 on one of six ticks, three
   horizons and seven burst periods (none included), the threat live
   from any day before the horizon, rolled from baseline (or a mutation
   of it) to hardened, permissive (the gate refuses) or a mutation of
   hardened. *)
let corpus_case rng =
  let fleet = Rng.int_in rng 1 400 in
  let domains = Rng.int_in rng 1 3 in
  let tick_days = Rng.pick rng [| 0.1; 0.25; 0.5; 0.7; 1.3; 3.0 |] in
  let horizon_days = Rng.pick rng [| 12.5; 30.0; 40.0 |] in
  let at = Rng.float rng horizon_days in
  let lock_bursts_every = Rng.pick rng [| 0; 1; 2; 3; 5; 16; 32 |] in
  let seed = Rng.bits64 rng in
  let baseline = Policy_map.baseline ~version:1 () in
  let hardened = Policy_map.hardened ~version:2 () in
  let old_policy = if Rng.bool rng then baseline else mutate rng baseline in
  let new_policy =
    match Rng.int rng 3 with
    | 0 -> hardened
    | 1 -> Policy_map.permissive ~version:2 ()
    | _ -> mutate rng hardened
  in
  let cfg =
    {
      (Campaign.default_config ~fleet ~seed ~domains ~quick:true ()) with
      Campaign.tick_days;
      horizon_days;
      plan = Plan.threat_trigger ~at ~horizon:horizon_days ();
      lock_bursts_every;
    }
  in
  (cfg, old_policy, new_policy)

(* One MD5 over the fingerprints of 400 seeded campaigns, recorded while
   every vehicle still walked all of its ticks one by one.  The corpus
   holds rated benign rows, rated attack probes, windows longer than the
   benign cycle, adoptions on any tick and bursts on every tick or none,
   so a campaign that counts fixed answers instead of visiting them must
   still visit every rated one, on the right tick and in the right
   order.  Re-recorded once, when each vehicle's two streams became
   [Rng.keyed]'s. *)
let test_campaign_corpus () =
  let rng = Rng.create 30L in
  let fingerprints =
    List.init 400 (fun _ ->
        let cfg, old_policy, new_policy = corpus_case rng in
        report_fingerprint (run_ok ~old_policy ~new_policy cfg))
  in
  check Alcotest.string "400 seeded campaigns" "5196e2cf43ba340fa791e72a96e78414"
    (Digest.to_hex (Digest.string (String.concat "\n" fingerprints)))

(* Across the stock baseline -> hardened rollout only one (version,
   request) pair ever consults a budget, hardened's normal-mode lock
   write; every other decision a campaign serves is a fixed answer. *)
let test_campaign_rated_traffic () =
  let requests =
    match Campaign.traffic (small_config ()) with
    | Ok requests -> Array.to_list requests
    | Error e -> Alcotest.failf "traffic: %s" e
  in
  check Alcotest.int "distinct requests" 36 (List.length requests);
  let rated version policy =
    let table =
      Table.compile ~strategy:Table.Deny_overrides (Policy_map.compile policy)
    in
    List.filter_map
      (fun (req : Ir.request) ->
        match (Table.resolve table req).Table.rated with
        | [||] -> None
        | rules ->
            Some
              ( version,
                Printf.sprintf "%s %s %s in %s: %d rated" req.subject
                  (Ir.op_name req.op) req.asset req.mode (Array.length rules)
              ))
      requests
  in
  check
    Alcotest.(list (pair int string))
    "only hardened's lock write is rated"
    [ (2, "connectivity write door_locks in normal: 1 rated") ]
    (rated 1 (Policy_map.baseline ~version:1 ())
    @ rated 2 (Policy_map.hardened ~version:2 ()))

(* more domains than vehicles leaves shards with no vehicle at all *)
let test_campaign_empty_shards () =
  let a = run_ok (small_config ~fleet:2 ~domains:1 ()) in
  let b = run_ok (small_config ~fleet:2 ~domains:4 ()) in
  check Alcotest.string "2 vehicles: 4 domains == 1 domain"
    (report_fingerprint a) (report_fingerprint b)

let test_campaign_gate_refuses_widened_update () =
  let cfg = small_config ~fleet:600 () in
  let r = run_ok ~new_policy:(Policy_map.permissive ~version:2 ()) cfg in
  check Alcotest.bool "gate refused" false r.Campaign.gate.Campaign.passed;
  check Alcotest.bool "widenings detected" true
    (r.Campaign.gate.Campaign.widened > 0);
  (* both versions counted over the diff's one universe: the allow-all
     update breaks the Table-I obligations for every name either names *)
  check
    Alcotest.(pair int int)
    "obligation violations 32 -> 138" (32, 138)
    ( r.Campaign.gate.Campaign.violations_before,
      r.Campaign.gate.Campaign.violations_after );
  List.iter
    (fun (s : Campaign.stage_report) ->
      check Alcotest.bool "no stage started" false s.Campaign.started;
      check Alcotest.int "nothing adopted" 0 s.Campaign.adopted)
    r.Campaign.stages;
  check Alcotest.int "whole fleet still on v1" cfg.Campaign.adoption.Ota.fleet
    (List.assoc 1 r.Campaign.versions);
  check Alcotest.int "nothing mitigated" 0 r.Campaign.ota.Campaign.mitigated;
  (* the old policy keeps answering traffic while the update is refused *)
  check Alcotest.bool "fleet kept serving decisions" true
    (r.Campaign.decisions > 0)

let test_campaign_validation () =
  let expect_error what cfg =
    match Campaign.run cfg with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error e ->
        check Alcotest.bool (what ^ " mentions campaign") true
          (String.length e >= 9 && String.sub e 0 9 = "campaign:")
  in
  let cfg = small_config () in
  expect_error "empty fleet"
    { cfg with Campaign.adoption = { cfg.Campaign.adoption with Ota.fleet = 0 } };
  expect_error "no domains" { cfg with Campaign.domains = 0 };
  expect_error "no stages" { cfg with Campaign.stages = [] };
  expect_error "descending fractions"
    {
      cfg with
      Campaign.stages =
        [
          { Campaign.name = "a"; fraction = 0.5; start_day = 0.0 };
          { Campaign.name = "b"; fraction = 0.4; start_day = 1.0 };
        ];
    };
  expect_error "threat past horizon"
    {
      cfg with
      Campaign.plan = Plan.threat_trigger ~at:40.0 ~horizon:50.0 ();
    };
  expect_error "plan without threat"
    { cfg with Campaign.plan = Plan.stall ~horizon:4.0 };
  expect_error "unknown threat" { cfg with Campaign.threat_id = "nope" }

let () =
  Alcotest.run "campaign"
    [
      ( "instance",
        [
          quick "state" test_instance_state;
          quick "budgets are per-vehicle" test_instance_budgets_are_private;
          quick "install resets budgets" test_instance_install_resets_budgets;
          quick "matches a private engine" test_instance_matches_engine;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 14 |])
            prop_vehicles_match_private_engines;
        ] );
      ( "plan",
        [
          quick "threat trigger" test_threat_trigger_plan;
          quick "window absent" test_threat_window_absent;
        ] );
      ( "campaign",
        [
          slow "completes and mitigates" test_campaign_completes;
          slow "deterministic" test_campaign_deterministic;
          slow "domain-count invariant" test_campaign_domain_count_invariant;
          slow "report digests unchanged" test_campaign_identity;
          slow "seeded corpus digest unchanged" test_campaign_corpus;
          quick "only the hardened lock write is rated"
            test_campaign_rated_traffic;
          quick "empty shards" test_campaign_empty_shards;
          slow "gate refuses widened update"
            test_campaign_gate_refuses_widened_update;
          quick "validation" test_campaign_validation;
        ] );
    ]
