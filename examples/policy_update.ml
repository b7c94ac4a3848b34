(* The paper's headline claim, §V.A.2/3: when a new threat appears after
   deployment, a policy update beats a guideline-driven redesign.

   This example walks both paths for the same newly discovered threat:
   the stochastic response-time models give the timeline, and the policy
   path is then actually executed — derive, validate, seal, install.

   Run with: dune exec examples/policy_update.exe *)

module Threat = Secpol.Threat
module Policy = Secpol.Policy
module V = Secpol.Vehicle
module L = Secpol.Lifecycle

let ok = function Ok v -> v | Error e -> failwith e

let () =
  (* The deployed fleet runs policy v1 derived from Table I. *)
  let model = V.Threat_catalog.model () in
  let v1 = Secpol.Pipeline.derive model in
  let store = Policy.Update.create () in
  (match Secpol.Pipeline.deploy store v1 with
  | Ok () -> ()
  | Error e -> failwith e);
  Printf.printf "Fleet deployed with policy v1 (%d rules).\n\n"
    (List.length v1.Secpol.Pipeline.db.Policy.Ir.rules);

  (* Day 0: researchers disclose a new attack — drivetrain command
     injection through the public charging port. *)
  let threat =
    Threat.Threat.make ~id:"charging_port_injection"
      ~title:"Command injection through the public charging port"
      ~description:
        "A malicious charging station drives the charge-controller path to \
         inject drivetrain commands."
      ~asset:V.Names.ev_ecu
      ~entry_points:[ V.Names.ep_any_node ]
      ~modes:[ V.Modes.name V.Modes.Normal ]
      ~stride:(ok (Threat.Stride.of_string "STE"))
      ~dread:(ok (Threat.Dread.of_list [ 8; 6; 5; 7; 5 ]))
      ~attack_operation:Threat.Threat.Write
      ~legitimate_operations:[ Threat.Threat.Read ] ()
  in
  Printf.printf "Day 0: new threat disclosed: %s\n" threat.Threat.Threat.title;
  Printf.printf "       STRIDE %s, DREAD %s -> %s priority\n\n"
    (Threat.Stride.to_string threat.Threat.Threat.stride)
    (Format.asprintf "%a" Threat.Dread.pp threat.Threat.Threat.dread)
    (Threat.Risk.priority_name (Threat.Risk.priority threat.Threat.Threat.dread));

  (* Path A: the traditional guideline response. *)
  print_endline "Path A — guideline-based response (redesign + recall):";
  let rng = Secpol.Sim.Rng.create 2026L in
  let plan_a = L.Response.sample rng L.Response.Guideline_redesign in
  Format.printf "%a@.@." L.Response.pp_plan plan_a;

  (* Path B: the paper's policy response. *)
  print_endline "Path B — policy update:";
  let plan_b = L.Response.sample rng L.Response.Policy_update in
  Format.printf "%a@.@." L.Response.pp_plan plan_b;

  (* Execute path B for real. *)
  print_endline "Executing path B:";
  let v2 =
    match
      Secpol.Pipeline.respond_to_new_threat ~store ~model ~threat
        ~at:(L.Response.development_days plan_b *. 86_400.0)
    with
    | Ok r -> r
    | Error es -> failwith (String.concat "; " es)
  in
  Printf.printf "  derived + validated: policy v%d, %d conflicts\n"
    v2.Secpol.Pipeline.bundle.Policy.Update.version
    (List.length v2.Secpol.Pipeline.conflicts);
  Printf.printf "  sealed: checksum %s\n"
    (String.sub v2.Secpol.Pipeline.bundle.Policy.Update.checksum 0 16);
  Printf.printf "  installed on the device store: v%d active\n\n"
    (match Policy.Update.current store v2.Secpol.Pipeline.policy.Policy.Ast.name with
    | Some b -> b.Policy.Update.version
    | None -> -1);
  print_endline "  what the update changes, decision region by region:";
  Format.printf "%a@." Policy.Verify.pp_diff_report
    (Policy.Verify.diff v1.Secpol.Pipeline.db v2.Secpol.Pipeline.db);

  (* Fleet-level comparison: exposure window distributions. *)
  print_endline "Exposure window (discovery -> 95% of a 100k fleet protected):";
  let results = L.Comparison.compare_all ~trials:300 ~target:0.95 () in
  List.iter (fun r -> Format.printf "%a@.@." L.Comparison.pp_result r) results;
  let no_noshow =
    { L.Ota.default_params with L.Ota.recall_no_show = 0.0 }
  in
  match
    L.Comparison.speedup
      (L.Comparison.compare_all ~trials:300 ~target:0.95 ~params:no_noshow ())
  with
  | Some s ->
      Printf.printf
        "Even granting the recall a 100%% completion rate, the policy path \
         is %.0fx faster to fleet-wide protection.\n"
        s
  | None -> ()
