(* Tests for the life-cycle models: Fig. 1 phases, response chains, fleet
   roll-out and the Q2 exposure-window comparison. *)

module Phases = Secpol_lifecycle.Phases
module Response = Secpol_lifecycle.Response
module Ota = Secpol_lifecycle.Ota
module Comparison = Secpol_lifecycle.Comparison
module Campaign = Secpol_lifecycle.Campaign
module Policy_map = Secpol_vehicle.Policy_map
module Plan = Secpol_faults.Plan
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

let small_params = { Ota.default_params with Ota.fleet = 2000 }

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

(* Every vehicle's time on both channels at seed 42, read back as the
   sorted fleet (a reordered or extra draw changes it), recorded before
   the campaign drew through the same sampler. *)
let test_sampler_pinned () =
  let times channel =
    let r = Ota.simulate (Rng.create 42L) small_params channel in
    let n = small_params.Ota.fleet in
    String.concat ";"
      (List.init n (fun i ->
           match
             r.Ota.days_to_quantile ((float_of_int i +. 0.5) /. float_of_int n)
           with
           | Some t -> Printf.sprintf "%h" t
           | None -> "never"))
  in
  check Alcotest.string "2000 vehicles, seed 42, both channels"
    "d7f31a9b6c1df82e898443bf79523bf0"
    (Digest.to_hex
       (Digest.string (times Ota.Over_the_air ^ "\n" ^ times Ota.Recall)))

(* ---------- Fleet rollout: tampered deliveries and downgrades ---------- *)

(* vehicle [i]'s delay on its own stream, as a campaign draws it, and the
   deliveries that arrived tampered on the way *)
let delays ?(fleet = 2000) params channel =
  let tampered = ref 0 in
  let days =
    Array.init fleet (fun i ->
        Ota.delay (Rng.create (Int64.of_int i)) params channel
          ~on_tampered:(fun () -> incr tampered))
  in
  (days, !tampered)

let mean_finite days =
  let finite = List.filter Float.is_finite (Array.to_list days) in
  List.fold_left ( +. ) 0.0 finite /. float_of_int (List.length finite)

let test_tampering_lengthens_ota () =
  let clean, none = delays Ota.default_params Ota.Over_the_air in
  let hostile, tampered =
    delays { Ota.default_params with Ota.corruption = 0.3 } Ota.Over_the_air
  in
  check Alcotest.int "no tampering at 0" 0 none;
  Alcotest.(check bool) "tampered deliveries at 0.3" true (tampered > 0);
  Alcotest.(check bool) "no delay shorter than on the same seed at 0" true
    (Array.for_all2 ( <= ) clean hostile);
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f d longer than %.2f d" (mean_finite hostile)
       (mean_finite clean))
    true
    (mean_finite hostile > mean_finite clean)

(* a no-show receives no delivery, so tampering changes none of them *)
let test_recall_no_shows_untouched () =
  let never days = Array.map (fun d -> not (Float.is_finite d)) days in
  let clean, _ = delays Ota.default_params Ota.Recall in
  let hostile, _ =
    delays { Ota.default_params with Ota.corruption = 0.5 } Ota.Recall
  in
  Alcotest.(check bool) "the same vehicles never show" true
    (never clean = never hostile);
  Alcotest.(check bool) "about a quarter" true
    (let n = Array.fold_left (fun c d -> if d then c + 1 else c) 0 (never clean) in
     n > 400 && n < 600)

(* regression: a tampered recall delivery was once retried after a delay
   drawn from the OTA mean, flattering the recall baseline.  With a tiny
   OTA mean, a large recall mean and heavy tampering, the retries
   dominate: ~9 of them at ~100 d each put the mean near 1000 d, where
   retries at the OTA mean would leave it near the 100-d first visit *)
let test_recall_retries_use_recall_mean () =
  let params =
    {
      Ota.default_params with
      Ota.ota_mean_days = 0.001;
      recall_mean_days = 100.0;
      recall_no_show = 0.0;
      corruption = 0.9;
    }
  in
  let days, _ = delays ~fleet:300 params Ota.Recall in
  let mean = mean_finite days in
  Alcotest.(check bool)
    (Printf.sprintf "retry delays dominate (mean %.0f days)" mean)
    true (mean > 400.0)

let quick_config ?(fleet = 400) ?(corruption = 0.0) () =
  let cfg = Campaign.default_config ~fleet ~quick:true () in
  { cfg with Campaign.adoption = { cfg.Campaign.adoption with Ota.corruption } }

let run_ok ?old_policy ?new_policy cfg =
  match Campaign.run ?old_policy ?new_policy cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "campaign failed: %s" e

let check_versions_cover r fleet =
  Alcotest.(check (list int)) "on v1 and v2 only" [ 1; 2 ]
    (List.map fst r.Campaign.versions);
  check Alcotest.int "versions cover the fleet" fleet
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Campaign.versions)

let test_campaign_refuses_tampered () =
  let clean = run_ok (quick_config ()) in
  check Alcotest.int "none tampered at 0" 0 clean.Campaign.tampered;
  let r = run_ok (quick_config ~corruption:0.3 ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%d tampered deliveries refused" r.Campaign.tampered)
    true (r.Campaign.tampered > 0);
  check_versions_cover r 400

(* corruption 1 would retry forever; the call must return, not hang *)
let test_total_corruption_refused () =
  (match Campaign.run (quick_config ~corruption:1.0 ()) with
  | Ok _ -> Alcotest.fail "corruption 1.0 accepted"
  | Error e ->
      check Alcotest.string "refused" "campaign: corruption outside [0,1)" e);
  Alcotest.check_raises "the sampler's fleet curve refuses it too"
    (Invalid_argument "Ota.simulate: corruption outside [0,1)") (fun () ->
      ignore
        (Ota.simulate (Rng.create 1L)
           { Ota.default_params with Ota.corruption = 1.0 }
           Ota.Over_the_air));
  let r = run_ok (quick_config ~fleet:20 ~corruption:0.99 ()) in
  Alcotest.(check bool) "0.99 finishes" true (r.Campaign.tampered > 0);
  check_versions_cover r 20

(* the horizon cuts the fleet stage short: every vehicle is on one of the
   two versions, and those on v2 are the stages' adopters *)
let test_versions_after_partial_rollout () =
  let cfg =
    {
      (quick_config ~corruption:0.2 ()) with
      Campaign.horizon_days = 8.0;
      plan = Plan.threat_trigger ~at:6.0 ~horizon:8.0 ();
    }
  in
  let r = run_ok cfg in
  check_versions_cover r 400;
  let adopted =
    List.fold_left (fun acc s -> acc + s.Campaign.adopted) 0 r.Campaign.stages
  in
  check Alcotest.int "v2 = the stages' adopters" adopted
    (List.assoc 2 r.Campaign.versions);
  Alcotest.(check bool) "genuinely partial" true
    (List.assoc 1 r.Campaign.versions > 0 && adopted > 0)

let test_downgrade_refused () =
  let v1 = Policy_map.baseline ~version:1 ()
  and v2 = Policy_map.hardened ~version:2 () in
  let refused what ~old_policy ~new_policy =
    match Campaign.run ~old_policy ~new_policy (quick_config ()) with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        Alcotest.(check bool) (what ^ " refused: " ^ e) true
          (String.starts_with ~prefix:"campaign: update must raise" e)
  in
  refused "v2 -> v1" ~old_policy:v2 ~new_policy:v1;
  refused "v2 -> v2" ~old_policy:v2 ~new_policy:v2

(* ---------- Comparison (experiment Q2) ---------- *)

let test_comparison_orders_of_magnitude () =
  let params = { Ota.default_params with Ota.fleet = 1000; recall_no_show = 0.0 } in
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
  let params = { Ota.default_params with Ota.fleet = 500 } in
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
        { Ota.default_params with Ota.fleet = 500; ota_mean_days = ota_mean;
          recall_mean_days = recall_mean; recall_no_show = 0.0 }
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
      ignore (Comparison.run ~target:1.5 Response.Policy_update));
  Alcotest.check_raises "bad params: Ota.validate's reason"
    (Invalid_argument "Ota.simulate: recall no-show outside [0,1]")
    (fun () ->
      ignore
        (Comparison.run
           ~params:{ Ota.default_params with Ota.recall_no_show = 1.5 }
           Response.Policy_update))

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
          quick "sampler draws pinned" test_sampler_pinned;
        ] );
      ( "fleet",
        [
          quick "OTA distribution" test_tampering_lengthens_ota;
          quick "recall no-shows" test_recall_no_shows_untouched;
          quick "tampered deliveries rejected" test_campaign_refuses_tampered;
          quick "total corruption rejected" test_total_corruption_refused;
          quick "recall retries use recall mean" test_recall_retries_use_recall_mean;
          quick "versions after partial rollout" test_versions_after_partial_rollout;
          quick "downgrade refused" test_downgrade_refused;
        ] );
      ( "comparison",
        [
          slow "orders of magnitude" test_comparison_orders_of_magnitude;
          slow "unreachable targets" test_comparison_unreachable_counted;
          slow "parameter robustness" test_comparison_robust_across_parameters;
          quick "validation" test_comparison_validation;
        ] );
    ]
