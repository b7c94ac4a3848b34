(* carsim: connected-car scenario runner.

   Subcommands:
     list      list the Table-I attack scenarios
     table1    print the regenerated Table I
     run       benign drive, print state and statistics
     attack    execute one attack scenario
     matrix    the full attack matrix across enforcement levels
     campaign  a fleet-scale staged policy-update campaign
     policy    print the car's derived baseline policy
*)

module V = Secpol.Vehicle
module Car = V.Car
module Catalog = V.Threat_catalog
module Scenarios = Secpol.Attack.Scenarios
module Campaign = Secpol.Attack.Campaign
module Threat = Secpol.Threat.Threat
module Derive = Secpol.Policy.Derive
open Cmdliner

let enforcement_conv =
  let parse = function
    | "off" | "none" -> Ok Campaign.Off
    | "sw" | "software" -> Ok Campaign.Software
    | "hpe" | "hardware" -> Ok Campaign.Hardware
    | s -> Error (`Msg (Printf.sprintf "unknown enforcement %S (off|sw|hpe)" s))
  in
  let print ppf level = Format.pp_print_string ppf (Campaign.level_name level) in
  Arg.conv (parse, print)

let enforcement =
  Arg.(value & opt enforcement_conv Campaign.Hardware
       & info [ "e"; "enforcement" ] ~docv:"LEVEL" ~doc:"off, sw or hpe.")

let seed =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-40s %s\n" (Scenarios.threat_id s)
          (match Catalog.find (Scenarios.threat_id s) with
          | Some row -> row.Catalog.threat.Threat.title
          | None -> ""))
      Scenarios.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the Table-I attack scenarios.")
    Term.(const run $ const ())

(* ---------- table1 ---------- *)

let table1_cmd =
  let run () =
    Printf.printf "%-40s %-6s %-17s %-6s\n" "threat" "STRIDE" "DREAD (avg)" "policy";
    List.iter
      (fun (row : Catalog.row) ->
        Printf.printf "%-40s %-6s %-17s %-6s\n" row.threat.Threat.id
          (Secpol.Threat.Stride.to_string row.threat.Threat.stride)
          (Format.asprintf "%a" Secpol.Threat.Dread.pp row.threat.Threat.dread)
          (match Derive.row_access row.threat with
          | Some a -> Derive.access_name a
          | None -> "-"))
      Catalog.rows;
    0
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the regenerated Table I.")
    Term.(const run $ const ())

(* ---------- run ---------- *)

let run_cmd =
  let run level seed seconds metrics_out =
    let obs = Secpol.Obs.Registry.create () in
    let car =
      Car.create ~seed ~enforcement:(Campaign.enforcement_of level) ~obs ()
    in
    Car.run car ~seconds;
    Format.printf "state after %.1f s: %a@." seconds V.State.pp car.Car.state;
    Printf.printf "bus utilisation: %.1f%%, frames: %d, deliveries: %d\n"
      (100.0 *. Secpol.Can.Bus.utilisation car.Car.bus)
      (Secpol.Can.Bus.frames_sent car.Car.bus)
      (Car.total_deliveries car);
    (match car.Car.hpes with
    | [] -> ()
    | hpes ->
        List.iter
          (fun (_, hpe) ->
            print_endline (Format.asprintf "%a" (fun ppf () -> Secpol.Hpe.Engine.pp_stats ppf hpe) ()))
          hpes);
    List.iter
      (fun (t, msg) -> Printf.printf "[%8.3f] %s\n" t msg)
      (V.State.events car.Car.state);
    (match metrics_out with
    | None -> ()
    | Some file ->
        let json = Secpol.Policy.Obs_json.to_string obs in
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc json;
            output_char oc '\n');
        Printf.printf "metrics written to %s\n" file);
    0
  in
  let seconds =
    Arg.(value & opt float 2.0 & info [ "t"; "seconds" ] ~docv:"S" ~doc:"Duration.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the run's telemetry registry (counters, gauges, \
                   latency histograms, event trace) to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Drive the car on benign traffic and print its state, bus load, \
          HPE statistics and event log.")
    Term.(const run $ enforcement $ seed $ seconds $ metrics_out)

(* ---------- attack ---------- *)

let attack_cmd =
  let run level seed threat_id =
    match Scenarios.find threat_id with
    | None ->
        Printf.eprintf "unknown scenario %S; see `carsim list`\n" threat_id;
        1
    | Some s ->
        print_endline (Scenarios.description s);
        print_newline ();
        let o =
          Scenarios.run ~seed ~enforcement:(Campaign.enforcement_of level) s
        in
        Format.printf "%a@." Scenarios.pp_outcome o;
        Printf.printf "detail: %s\n" o.Scenarios.detail;
        if o.Scenarios.succeeded then 3 else 0
  in
  let threat_id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"THREAT" ~doc:"Threat id.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Execute one Table-I attack scenario. Exit 0 blocked / 3 succeeded.")
    Term.(const run $ enforcement $ seed $ threat_id)

(* ---------- matrix ---------- *)

let matrix_cmd =
  let run seed =
    let summaries = Campaign.table ~seed () in
    List.iter (fun s -> Format.printf "%a@." Campaign.pp_summary s) summaries;
    Printf.printf "matches the paper's expectation: %b\n"
      (Campaign.matches_paper summaries);
    if Campaign.matches_paper summaries then 0 else 1
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Run all sixteen scenarios at every enforcement level.")
    Term.(const run $ seed)

(* ---------- campaign (fleet-scale policy update) ---------- *)

module Fleet_campaign = Secpol.Lifecycle.Campaign

let campaign_cmd =
  let module FC = Fleet_campaign in
  let run fleet seed domains quick unsafe report =
    let cfg = FC.default_config ~fleet ~seed ~domains ~quick () in
    let new_policy =
      (* a deliberately widened update: the gate must refuse it *)
      if unsafe then Some (V.Policy_map.permissive ~version:2 ()) else None
    in
    match FC.run ?new_policy cfg with
    | Error e ->
        prerr_endline e;
        3
    | Ok r ->
        (match report with
        | Some file ->
            Out_channel.with_open_text file (fun oc ->
                output_string oc
                  (Secpol.Policy.Json.to_string (FC.to_json r));
                output_char oc '\n')
        | None -> ());
        Printf.printf "threat: %s (day %g)\n" r.FC.threat_title r.FC.threat_day;
        Printf.printf
          "gate: %s (widened %d, tightened %d, obligations %d -> %d)\n"
          (if r.FC.gate.FC.passed then "passed" else "REFUSED")
          r.FC.gate.FC.widened r.FC.gate.FC.tightened
          r.FC.gate.FC.violations_before r.FC.gate.FC.violations_after;
        List.iter
          (fun (s : FC.stage_report) ->
            Printf.printf "stage %-8s day %4g  %7d vehicles, %7d adopted%s\n"
              s.FC.stage.FC.name s.FC.stage.FC.start_day s.FC.vehicles
              s.FC.adopted
              (if s.FC.started then "" else "  (not started)"))
          r.FC.stages;
        Printf.printf "decisions: %d (%.0f/s), benign denied: %d, lock bursts: %d allowed / %d shaped\n"
          r.FC.decisions r.FC.throughput_per_s r.FC.benign_denied
          r.FC.lock_allowed r.FC.lock_denied;
        let channel name (c : FC.channel_report) =
          Printf.printf
            "%-6s mitigation: %7d vehicles, %7d never, p50 %6.2f d, p99 %7.2f d\n"
            name c.FC.mitigated c.FC.never c.FC.p50_days c.FC.p99_days
        in
        channel "ota" r.FC.ota;
        channel "recall" r.FC.recall;
        Printf.printf "ota vs recall p50 speedup: %.1fx\n" r.FC.speedup_p50;
        if r.FC.gate.FC.passed then 0 else 4
  in
  let fleet =
    Arg.(value & opt int 100_000
         & info [ "fleet" ] ~docv:"N" ~doc:"Fleet size (vehicle instances).")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains the fleet is sharded across.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Coarser tick for smoke runs.")
  in
  let unsafe =
    Arg.(value & flag
         & info [ "unsafe-update" ]
             ~doc:"Roll out a deliberately widened (allow-all) update; \
                   the verifier gate refuses it and the rollout halts.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the campaign report to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Roll a policy update across a simulated fleet in verifier-gated \
          stages while a Table-I threat goes live mid-run. Exit 0 on a \
          completed rollout, 4 when the gate refused the update.")
    Term.(const run $ fleet $ seed $ domains $ quick $ unsafe $ report)

(* ---------- policy ---------- *)

let policy_cmd =
  let run permissive =
    let p =
      if permissive then V.Policy_map.permissive () else V.Policy_map.baseline ()
    in
    print_string (Secpol.Policy.Printer.to_string p);
    0
  in
  let permissive =
    Arg.(value & flag & info [ "permissive" ] ~doc:"Print the factory (allow-all) policy instead.")
  in
  Cmd.v
    (Cmd.info "policy" ~doc:"Print the car's derived least-privilege baseline policy.")
    Term.(const run $ permissive)

(* ---------- sniff ---------- *)

let sniff_cmd =
  let run level seed seconds =
    let car =
      Car.create ~seed ~enforcement:(Campaign.enforcement_of level) ()
    in
    Car.run car ~seconds;
    print_string (Secpol.Can.Candump.export (Car.trace car));
    0
  in
  let seconds =
    Arg.(value & opt float 1.0 & info [ "t"; "seconds" ] ~docv:"S" ~doc:"Capture duration.")
  in
  Cmd.v
    (Cmd.info "sniff"
       ~doc:"Drive the car and dump its bus traffic in candump format.")
    Term.(const run $ enforcement $ seed $ seconds)

(* ---------- replay ---------- *)

let replay_cmd =
  let run level seed file =
    let text =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Secpol.Can.Candump.import text with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok records ->
        let car =
          Car.create ~seed ~enforcement:(Campaign.enforcement_of level) ()
        in
        Car.run car ~seconds:0.2;
        (* the replay device is foreign hardware on the bus *)
        let _replayer = Secpol.Can.Node.create ~name:"replayer" car.Car.bus in
        let span =
          List.fold_left
            (fun (lo, hi) (r : Secpol.Can.Candump.record) ->
              (min lo r.time, max hi r.time))
            (infinity, neg_infinity) records
        in
        Secpol.Can.Candump.replay car.Car.sim car.Car.bus ~sender:"replayer"
          records;
        Car.run car ~seconds:(snd span -. fst span +. 1.0);
        Printf.printf "replayed %d frames from %s\n" (List.length records) file;
        Format.printf "state after replay: %a@." V.State.pp car.Car.state;
        List.iter
          (fun (t, msg) -> Printf.printf "[%8.3f] %s\n" t msg)
          (V.State.events car.Car.state);
        0
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG" ~doc:"candump log file.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a candump log onto the car's bus from an alien station.")
    Term.(const run $ enforcement $ seed $ file)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let module F = Secpol.Faults in
  let module Tcar = V.Topology_car in
  let report_run ~plan ~unbounded_gateway report_out (o : F.Chaos.outcome) =
    (match report_out with
    | None -> ()
    | Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc (Secpol.Policy.Json.to_string o.F.Chaos.report);
            output_char oc '\n');
        Printf.printf "fault report written to %s\n" file);
    let h = o.F.Chaos.harness in
    let car = F.Harness.car h in
    Printf.printf "placement: %s%s\n"
      (Tcar.placement_name (Tcar.placement car))
      (if unbounded_gateway then " (unbounded gateway)" else "");
    Format.printf "final state: %a@." V.State.pp (Tcar.state car);
    (match F.Harness.failsafe_entered h with
    | None -> ()
    | Some at -> Printf.printf "entered fail-safe at %.4fs\n" at);
    let faulted = F.Harness.faulted h in
    Printf.printf "blast region: %s\n"
      (match faulted with [] -> "(none)" | segs -> String.concat ", " segs);
    List.iter
      (fun seg ->
        let bus = Tcar.bus car seg in
        Printf.printf
          "  %-13s %s util %5.1f%%  frames %6d  deliveries %6d  pending %d\n"
          seg
          (if List.mem seg faulted then "[blast]" else "       ")
          (100.0 *. Secpol.Can.Bus.utilisation bus)
          (Secpol.Can.Bus.frames_sent bus)
          (Tcar.deliveries_in car seg)
          (Secpol.Can.Bus.pending bus))
      (Tcar.segments car);
    List.iter
      (fun (v : F.Invariant.violation) ->
        Printf.printf "VIOLATION [%8.4f] %s: %s\n" v.F.Invariant.time
          v.F.Invariant.check v.F.Invariant.detail)
      (F.Invariant.violations o.F.Chaos.checker);
    if o.F.Chaos.passed then begin
      Printf.printf "chaos %s: all invariants held\n" plan.F.Plan.name;
      0
    end
    else begin
      Printf.printf "chaos %s: INVARIANT VIOLATIONS\n" plan.F.Plan.name;
      4
    end
  in
  let run seed plan_name seconds placement unbounded_gateway report_out =
    match F.Plan.of_name ~seed ~horizon:seconds plan_name with
    | None ->
        Printf.eprintf "unknown plan %S (one of: %s)\n" plan_name
          (String.concat ", " F.Plan.named);
        1
    | Some plan -> (
        Format.printf "%a" F.Plan.pp plan;
        match F.Chaos.run ~placement ~unbounded_gateway ~seed ~plan () with
        | exception Invalid_argument msg ->
            (* the harness refuses before simulating anything *)
            Printf.eprintf "carsim chaos: %s\n" msg;
            1
        | outcome -> report_run ~plan ~unbounded_gateway report_out outcome)
  in
  let plan_name =
    Arg.(
      value
      & opt string "stall"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan.  On the flat one-bus car: stall, storm, \
             partition, crash, hpe-corruption, skewed-stall, mixed \
             (seed-generated).  On the four-segment car: \
             segment-partition, segment-babble, gateway-failover.")
  in
  let seconds =
    Arg.(
      value & opt float 4.0
      & info [ "t"; "seconds" ] ~docv:"S" ~doc:"Campaign horizon.")
  in
  let placement =
    let placement_conv =
      let parse s =
        match Tcar.placement_of_name s with
        | Some p -> Ok p
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "expected central or distributed, got %S" s))
      in
      let print ppf p = Format.pp_print_string ppf (Tcar.placement_name p) in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt placement_conv `Distributed
      & info [ "placement" ] ~docv:"WHERE"
          ~doc:
            "Enforcement placement, for every plan: central (acceptance \
             filters and gateway whitelists only, no policy engine on the \
             car, so stall plans are refused) or distributed (a per-node \
             HPE bank as well).")
  in
  let unbounded_gateway =
    Arg.(
      value & flag
      & info [ "unbounded-gateway" ]
          ~doc:
            "Build the gateways with an effectively unlimited admission \
             queue — a deliberately broken configuration whose backlog \
             the blast_gateway_backlog invariant must catch (expected \
             exit 4 under segment-babble).")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the fault report (per-fault MTTR and blast region, \
             watchdog MTTD, fail-safe latency, blast radius, violations, \
             telemetry) to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a fault-injection campaign against the car. Exit 0 when \
          every safety invariant held, 4 on violations, 1 when the plan \
          is refused.")
    Term.(
      const run $ seed $ plan_name $ seconds $ placement $ unbounded_gateway
      $ report_out)

let () =
  let info =
    Cmd.info "carsim" ~version:"1.0.0"
      ~doc:"Connected-car simulation and attack-scenario runner."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; table1_cmd; run_cmd; attack_cmd; matrix_cmd;
            campaign_cmd; policy_cmd; sniff_cmd; replay_cmd; chaos_cmd;
          ]))
