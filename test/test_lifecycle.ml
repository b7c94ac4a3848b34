(* Tests for the life-cycle models: Fig. 1 phases, response chains, fleet
   roll-out and the Q2 exposure-window comparison. *)

module Phases = Secpol_lifecycle.Phases
module Response = Secpol_lifecycle.Response
module Ota = Secpol_lifecycle.Ota
module Comparison = Secpol_lifecycle.Comparison
module Rng = Secpol_sim.Rng
module Stats = Secpol_sim.Stats

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* ---------- Phases (Fig. 1) ---------- *)

let test_pipeline_structure () =
  check Alcotest.int "ten stages" 10 (List.length Phases.pipeline);
  (* the bridge sits between modelling and testing *)
  let processes = List.map (fun (s : Phases.stage) -> s.process) Phases.pipeline in
  let rec groups = function
    | [] -> []
    | x :: rest ->
        let rec skip = function
          | y :: r when y = x -> skip r
          | r -> r
        in
        x :: groups (skip rest)
  in
  Alcotest.(check int) "three contiguous process groups" 3
    (List.length (groups processes))

let test_pipeline_stage_lookup () =
  (match Phases.find "threat_rating" with
  | Some s ->
      Alcotest.(check bool) "in modelling" true
        (s.Phases.process = Phases.Threat_modelling)
  | None -> Alcotest.fail "threat_rating missing");
  Alcotest.(check bool) "unknown stage" true (Phases.find "nonsense" = None)

let test_pipeline_countermeasure_outputs () =
  match Phases.find "countermeasures" with
  | Some s ->
      Alcotest.(check bool) "mentions policies" true
        (List.exists
           (fun o ->
             String.length o >= 8
             && String.sub o 0 8 = "security")
           s.Phases.outputs)
  | None -> Alcotest.fail "countermeasures stage missing"

(* ---------- Response chains ---------- *)

let test_triangular_bounds () =
  let rng = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Response.triangular rng ~low:2.0 ~mode:5.0 ~high:11.0 in
    Alcotest.(check bool) "within bounds" true (v >= 2.0 && v <= 11.0)
  done

let test_triangular_degenerate () =
  let rng = Rng.create 1L in
  check Alcotest.(float 0.0) "point mass" 4.0
    (Response.triangular rng ~low:4.0 ~mode:4.0 ~high:4.0);
  Alcotest.check_raises "bad parameters"
    (Invalid_argument "Response.triangular: need low <= mode <= high")
    (fun () -> ignore (Response.triangular rng ~low:5.0 ~mode:1.0 ~high:9.0))

let test_plans_have_expected_shape () =
  let rng = Rng.create 7L in
  let g = Response.sample rng Response.Guideline_redesign in
  Alcotest.(check bool) "guideline recalls" true g.Response.requires_recall;
  check Alcotest.int "four stages" 4 (List.length g.Response.stages);
  let p = Response.sample rng Response.Policy_update in
  Alcotest.(check bool) "policy is OTA" false p.Response.requires_recall;
  check Alcotest.int "three stages" 3 (List.length p.Response.stages);
  Alcotest.(check bool) "development positive" true
    (Response.development_days p > 0.0)

let test_policy_always_faster_development () =
  (* worst-case policy development (10 days) < best-case redesign (111) *)
  let rng = Rng.create 11L in
  for _ = 1 to 200 do
    let g = Response.development_days (Response.sample rng Response.Guideline_redesign) in
    let p = Response.development_days (Response.sample rng Response.Policy_update) in
    Alcotest.(check bool) "policy development strictly shorter" true (p < g)
  done

(* ---------- OTA / recall roll-out ---------- *)

let small_params =
  { Ota.fleet = 2000; ota_mean_days = 3.0; recall_mean_days = 90.0; recall_no_show = 0.25 }

let test_ota_quantiles_monotone () =
  let rng = Rng.create 3L in
  let r = Ota.simulate rng small_params Ota.Over_the_air in
  match (r.Ota.days_to_quantile 0.5, r.Ota.days_to_quantile 0.95) with
  | Some d50, Some d95 ->
      Alcotest.(check bool) "median before p95" true (d50 <= d95);
      Alcotest.(check bool) "median near mean*ln2" true (d50 > 1.0 && d50 < 4.0)
  | _ -> Alcotest.fail "OTA quantiles missing"

let test_recall_never_finishes () =
  let rng = Rng.create 3L in
  let r = Ota.simulate rng small_params Ota.Recall in
  Alcotest.(check bool) "25% never protected -> q=0.95 unreachable" true
    (r.Ota.days_to_quantile 0.95 = None);
  match r.Ota.days_to_quantile 0.5 with
  | Some d -> Alcotest.(check bool) "median is months" true (d > 30.0)
  | None -> Alcotest.fail "median should be reachable"

let test_protected_at_curve () =
  let rng = Rng.create 3L in
  let r = Ota.simulate rng small_params Ota.Over_the_air in
  check Alcotest.(float 0.01) "at t=0 nobody" 0.0 (r.Ota.protected_at 0.0);
  Alcotest.(check bool) "grows" true
    (r.Ota.protected_at 3.0 > 0.4 && r.Ota.protected_at 3.0 < 0.9);
  Alcotest.(check bool) "eventually everyone" true (r.Ota.protected_at 1000.0 > 0.999)

let test_quantile_edges () =
  let rng = Rng.create 3L in
  let r = Ota.simulate rng small_params Ota.Over_the_air in
  check Alcotest.(option (float 0.0)) "q=0" (Some 0.0) (r.Ota.days_to_quantile 0.0);
  Alcotest.(check bool) "q>1 impossible" true (r.Ota.days_to_quantile 1.5 = None);
  (* q = 1.0 exactly: reachable over the air (everyone eventually adopts),
     and the last adopter is no earlier than the median *)
  (match (r.Ota.days_to_quantile 1.0, r.Ota.days_to_quantile 0.5) with
  | Some last, Some median ->
      Alcotest.(check bool) "q=1 finite and ordered" true
        (Float.is_finite last && last >= median)
  | _ -> Alcotest.fail "q=1.0 should be reachable over the air")

let test_quantile_edges_heavy_no_show () =
  (* under heavy no-show, quantiles just above the reachable fraction are
     unreachable while those safely below stay finite — which also pins
     that the never-adopters (infinity) sort to the tail of the times
     array rather than interleaving (the Float.compare regression) *)
  let params = { small_params with Ota.recall_no_show = 0.6 } in
  let rng = Rng.create 17L in
  let r = Ota.simulate rng params Ota.Recall in
  let reachable = r.Ota.protected_at 1e9 in
  Alcotest.(check bool) "roughly 40% reachable" true
    (reachable > 0.3 && reachable < 0.5);
  (match r.Ota.days_to_quantile 0.25 with
  | Some d -> Alcotest.(check bool) "below the plateau: finite" true (Float.is_finite d)
  | None -> Alcotest.fail "q=0.25 should be reachable");
  Alcotest.(check bool) "just above the plateau: unreachable" true
    (r.Ota.days_to_quantile (reachable +. 0.01) = None);
  Alcotest.(check bool) "q=1.0 unreachable" true (r.Ota.days_to_quantile 1.0 = None);
  (* the protection curve saturates at the reachable fraction: every
     finite adopter sorts before the first infinity *)
  check Alcotest.(float 0.0001) "curve plateau = reachable fraction" reachable
    (r.Ota.protected_at 1e12)

(* A quantile selects its element instead of sorting the fleet: for any
   fleet (never-adopters and ties included) and any q, asked before or
   after the curve has been read, it must be the element a full sort
   puts at the quantile's index. *)
let prop_quantile_is_sorted_element =
  let reference times q =
    let n = Array.length times in
    let sorted = Array.copy times in
    Array.sort Float.compare sorted;
    if q <= 0.0 then Some 0.0
    else if q > 1.0 then None
    else
      let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
      let t = sorted.(max 0 (min (n - 1) idx)) in
      if Float.is_finite t then Some t else None
  in
  let time =
    QCheck.Gen.(
      frequency
        [
          (1, return infinity);
          (* a handful of values, so ties are common *)
          (2, map float_of_int (0 -- 5));
          (3, float_bound_exclusive 100.0);
        ])
  in
  let qs = [ 0.0; 1e-9; 0.5; 0.95; 1.0; 1.5 ] in
  QCheck.Test.make ~count:300 ~name:"days_to_quantile = sorted element"
    QCheck.(make Gen.(array_size (1 -- 60) time))
    (fun times ->
      let r = Ota.of_times Ota.Recall times in
      let agree () =
        List.for_all (fun q -> r.Ota.days_to_quantile q = reference times q) qs
      in
      let before = agree () in
      (* the curve plateaus at the adopters' share, and reading it, after
         the selections reordered the fleet, changes no quantile *)
      let adopters =
        Array.fold_left (fun c t -> if Float.is_finite t then c + 1 else c) 0 times
      in
      let plateau = r.Ota.protected_at 1e9 in
      before
      && plateau = float_of_int adopters /. float_of_int (Array.length times)
      && agree ())

(* ---------- Fleet distribution ---------- *)

module Fleet = Secpol_lifecycle.Fleet
module Policy = Secpol_policy

let v n =
  match
    Policy.Parser.parse
      (Printf.sprintf "policy \"fleetpol\" version %d { default deny; }" n)
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let make_fleet ?(size = 200) () =
  match Fleet.create ~size (v 1) with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let test_fleet_factory_state () =
  let f = make_fleet () in
  check Alcotest.int "size" 200 (Fleet.size f);
  Alcotest.(check (list (pair int int))) "all on v1" [ (1, 200) ] (Fleet.versions f)

let test_fleet_ota_distribution () =
  let f = make_fleet () in
  match Fleet.distribute f (Policy.Update.bundle (v 2)) with
  | Error e -> Alcotest.fail e
  | Ok dist ->
      check Alcotest.int "everyone adopts" 200 (Array.length dist.Fleet.adoption_days);
      check Alcotest.int "none left behind" 0 dist.Fleet.never;
      Alcotest.(check (list (pair int int))) "all on v2" [ (2, 200) ] (Fleet.versions f);
      (match Fleet.days_to_quantile dist f 0.95 with
      | Some d -> Alcotest.(check bool) "p95 within days" true (d > 0.0 && d < 60.0)
      | None -> Alcotest.fail "p95 unreachable");
      Alcotest.(check bool) "fraction grows" true
        (Fleet.protected_fraction dist f ~days:30.0
        > Fleet.protected_fraction dist f ~days:1.0)

let test_fleet_recall_no_shows () =
  let f = make_fleet () in
  let params = { Secpol_lifecycle.Ota.default_params with recall_no_show = 0.5 } in
  match
    Fleet.distribute f ~channel:Secpol_lifecycle.Ota.Recall ~params
      (Policy.Update.bundle (v 2))
  with
  | Error e -> Alcotest.fail e
  | Ok dist ->
      Alcotest.(check bool) "many never adopt" true (dist.Fleet.never > 50);
      Alcotest.(check bool) "fleet split across versions" true
        (List.length (Fleet.versions f) = 2);
      Alcotest.(check bool) "full protection unreachable" true
        (Fleet.days_to_quantile dist f 0.99 = None)

let test_fleet_rejects_tampered_deliveries () =
  let f = make_fleet ~size:100 () in
  match Fleet.distribute f ~corruption:0.3 (Policy.Update.bundle (v 2)) with
  | Error e -> Alcotest.fail e
  | Ok dist ->
      Alcotest.(check bool) "some deliveries arrived tampered" true
        (dist.Fleet.tampered_rejections > 5);
      (* integrity checking means everyone still converges on the real v2 *)
      Alcotest.(check (list (pair int int))) "clean convergence" [ (2, 100) ]
        (Fleet.versions f)

let test_fleet_total_corruption_rejected () =
  (* regression: corruption = 1.0 used to pass validation and then spin
     forever in the clean-retry loop (every retry arrives tampered too).
     The boundary is now rejected up front — and the call must return, not
     hang, which is the real property this test pins. *)
  let f = make_fleet ~size:5 () in
  (match Fleet.distribute f ~corruption:1.0 (Policy.Update.bundle (v 2)) with
  | Ok _ -> Alcotest.fail "corruption=1.0 accepted"
  | Error e ->
      Alcotest.(check bool) "error names the open interval" true
        (String.length e > 0 && e = "Fleet.distribute: corruption outside [0,1)"));
  (* values strictly inside [0,1) still terminate and converge *)
  match Fleet.distribute f ~corruption:0.99 (Policy.Update.bundle (v 2)) with
  | Ok dist ->
      Alcotest.(check bool) "heavy corruption still converges" true
        (dist.Fleet.tampered_rejections > 0);
      Alcotest.(check (list (pair int int))) "on v2" [ (2, 5) ] (Fleet.versions f)
  | Error e -> Alcotest.fail e

let test_fleet_recall_retries_use_recall_mean () =
  (* regression: corrupted recall deliveries used to retry after a delay
     drawn from [ota_mean_days], silently flattering the recall baseline.
     With a tiny OTA mean and a large recall mean, heavy corruption makes
     retry delays dominate total adoption time: the distribution is only
     plausible if retries travelled the recall channel. *)
  let params =
    { Secpol_lifecycle.Ota.fleet = 0; ota_mean_days = 0.001;
      recall_mean_days = 100.0; recall_no_show = 0.0 }
  in
  let f = make_fleet ~size:300 () in
  match
    Fleet.distribute f ~channel:Secpol_lifecycle.Ota.Recall ~params
      ~corruption:0.9 (Policy.Update.bundle (v 2))
  with
  | Error e -> Alcotest.fail e
  | Ok dist ->
      let n = Array.length dist.Fleet.adoption_days in
      check Alcotest.int "everyone eventually adopts" 300 n;
      let mean = Array.fold_left ( +. ) 0.0 dist.Fleet.adoption_days /. float_of_int n in
      (* expected ~9 retries per device, each ~100 days: the true mean is
         ~1000 days; under the bug retries cost ~0.001 days and the mean
         collapses to the ~100-day base delay *)
      Alcotest.(check bool)
        (Printf.sprintf "retry delays dominate (mean %.0f days)" mean)
        true (mean > 400.0)

let test_fleet_versions_after_partial_rollout () =
  (* a recall with no-shows leaves the fleet split; versions must account
     for every device, with the stragglers still on v1 *)
  let f = make_fleet ~size:400 () in
  let params = { Secpol_lifecycle.Ota.default_params with recall_no_show = 0.3 } in
  match
    Fleet.distribute f ~channel:Secpol_lifecycle.Ota.Recall ~params
      (Policy.Update.bundle (v 2))
  with
  | Error e -> Alcotest.fail e
  | Ok dist ->
      let versions = Fleet.versions f in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 versions in
      check Alcotest.int "every device accounted for" 400 total;
      let count v = Option.value ~default:0 (List.assoc_opt v versions) in
      check Alcotest.int "stragglers still on v1" dist.Fleet.never (count 1);
      check Alcotest.int "adopters on v2"
        (Array.length dist.Fleet.adoption_days) (count 2);
      Alcotest.(check bool) "rollout genuinely partial" true
        (dist.Fleet.never > 0 && count 2 > 0)

let test_fleet_refuses_downgrade () =
  let f = make_fleet ~size:10 () in
  (match Fleet.distribute f (Policy.Update.bundle (v 2)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Fleet.distribute f (Policy.Update.bundle (v 2)) with
  | Ok _ -> Alcotest.fail "fleet accepted a non-newer bundle"
  | Error _ -> ()

(* ---------- Comparison (experiment Q2) ---------- *)

let test_comparison_orders_of_magnitude () =
  let params =
    { Ota.fleet = 1000; ota_mean_days = 3.0; recall_mean_days = 90.0; recall_no_show = 0.0 }
  in
  let results = Comparison.compare_all ~trials:100 ~target:0.95 ~params () in
  check Alcotest.int "three kinds" 3 (List.length results);
  match Comparison.speedup results with
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "speedup %.1fx is at least 10x" s)
        true (s >= 10.0)
  | None -> Alcotest.fail "no speedup computable"

let test_comparison_unreachable_counted () =
  (* with no-shows, a 0.95 target is usually unreachable by recall *)
  let params =
    { Ota.fleet = 500; ota_mean_days = 3.0; recall_mean_days = 90.0; recall_no_show = 0.25 }
  in
  let r =
    Comparison.run ~trials:50 ~target:0.95 ~params Response.Guideline_redesign
  in
  Alcotest.(check bool) "most trials never protect the fleet" true
    (r.Comparison.unreachable > 25);
  let p = Comparison.run ~trials:50 ~target:0.95 ~params Response.Policy_update in
  check Alcotest.int "OTA always reaches" 0 p.Comparison.unreachable

let test_comparison_robust_across_parameters () =
  (* sensitivity sweep: the ordering holds even with pessimistic OTA and
     optimistic recall assumptions *)
  List.iter
    (fun (ota_mean, recall_mean) ->
      let params =
        { Ota.fleet = 500; ota_mean_days = ota_mean; recall_mean_days = recall_mean;
          recall_no_show = 0.0 }
      in
      let results = Comparison.compare_all ~trials:50 ~target:0.9 ~params () in
      match Comparison.speedup results with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "ota=%.0f recall=%.0f speedup %.1f" ota_mean recall_mean s)
            true (s > 2.0)
      | None -> Alcotest.fail "no speedup")
    [ (3.0, 90.0); (14.0, 30.0); (7.0, 60.0) ]

let test_comparison_validation () =
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Comparison.run: trials must be positive") (fun () ->
      ignore (Comparison.run ~trials:0 Response.Policy_update));
  Alcotest.check_raises "bad target"
    (Invalid_argument "Comparison.run: target outside (0,1]") (fun () ->
      ignore (Comparison.run ~target:1.5 Response.Policy_update))

let () =
  Alcotest.run "secpol_lifecycle"
    [
      ( "phases",
        [
          quick "pipeline structure" test_pipeline_structure;
          quick "stage lookup" test_pipeline_stage_lookup;
          quick "countermeasure outputs" test_pipeline_countermeasure_outputs;
        ] );
      ( "response",
        [
          quick "triangular bounds" test_triangular_bounds;
          quick "triangular degenerate" test_triangular_degenerate;
          quick "plan shapes" test_plans_have_expected_shape;
          quick "policy development faster" test_policy_always_faster_development;
        ] );
      ( "rollout",
        [
          quick "OTA quantiles" test_ota_quantiles_monotone;
          quick "recall no-shows" test_recall_never_finishes;
          quick "protection curve" test_protected_at_curve;
          quick "quantile edges" test_quantile_edges;
          quick "quantile edges under heavy no-show" test_quantile_edges_heavy_no_show;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 30 |])
            prop_quantile_is_sorted_element;
        ] );
      ( "fleet",
        [
          quick "factory state" test_fleet_factory_state;
          quick "OTA distribution" test_fleet_ota_distribution;
          quick "recall no-shows" test_fleet_recall_no_shows;
          quick "tampered deliveries rejected" test_fleet_rejects_tampered_deliveries;
          quick "total corruption rejected" test_fleet_total_corruption_rejected;
          quick "recall retries use recall mean" test_fleet_recall_retries_use_recall_mean;
          quick "versions after partial rollout" test_fleet_versions_after_partial_rollout;
          quick "downgrade refused" test_fleet_refuses_downgrade;
        ] );
      ( "comparison",
        [
          slow "orders of magnitude" test_comparison_orders_of_magnitude;
          slow "unreachable targets" test_comparison_unreachable_counted;
          slow "parameter robustness" test_comparison_robust_across_parameters;
          quick "validation" test_comparison_validation;
        ] );
    ]
