(* Benchmark and reproduction harness.

   One target per paper artefact (see DESIGN.md's experiment index):
     table1      Table I regenerated and cross-checked against the paper
     fig1        the secure product development life-cycle pipeline
     fig2        the connected-car CAN topology and live connectivity
     fig3        the CAN node internals: transceiver -> controller -> CPU
     fig4        the CAN node with integrated HPE
     q1          attack-scenario matrix across enforcement levels
     q2          exposure window: guideline redesign vs policy update
     q3          firmware-compromise sweep: software filters vs HPE
     q4          false-block rate of derived policies on benign traffic
     perf        bechamel micro-benchmarks of the engines
     parscale    shard-per-domain scaling of the decision server
     topology    central vs distributed enforcement over four segments
     serve       the secpold daemon end to end over its unix socket
     ablation    design-choice ablations from DESIGN.md §7

   Run all with `dune exec bench/main.exe`, or name the targets. *)

module V = Secpol_vehicle
module Catalog = V.Threat_catalog
module Threat = Secpol_threat.Threat
module Dread = Secpol_threat.Dread
module Stride = Secpol_threat.Stride
module Derive = Secpol_policy.Derive
module Policy = Secpol_policy
module Can = Secpol_can
module Hpe = Secpol_hpe
module Campaign = Secpol_attack.Campaign
module Scenarios = Secpol_attack.Scenarios
module Lifecycle = Secpol_lifecycle
module Par = Secpol_par
module Serve_daemon = Secpol_serve.Daemon
module Serve_client = Secpol_serve.Client

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let mode_marks (t : Threat.t) =
  let has m = List.mem (V.Modes.name m) t.modes in
  Printf.sprintf "%c %c %c"
    (if has V.Modes.Normal then 'x' else '.')
    (if has V.Modes.Remote_diagnostic then 'x' else '.')
    (if has V.Modes.Fail_safe then 'x' else '.')

let table1 () =
  section "Table I: threat modelling of the connected car (regenerated)";
  Printf.printf
    "%-38s %-20s %-6s %-6s %-17s %-7s %-7s %s\n"
    "Threat" "Asset" "Modes" "STRIDE" "DREAD (avg)" "Derived" "Paper" "OK";
  let avg_ok = ref 0 and pol_ok = ref 0 in
  List.iter
    (fun (row : Catalog.row) ->
      let t = row.threat in
      let avg = Dread.average t.Threat.dread in
      let derived =
        match Derive.row_access t with
        | Some a -> Derive.access_name a
        | None -> "-"
      in
      let avg_match = Float.abs (avg -. row.paper_average) < 1e-9 in
      let pol_match = derived = Derive.access_name row.paper_policy in
      if avg_match then incr avg_ok;
      if pol_match then incr pol_ok;
      Printf.printf "%-38s %-20s %-6s %-6s %-17s %-7s %-7s %s\n"
        t.Threat.id t.Threat.asset (mode_marks t)
        (Stride.to_string t.Threat.stride)
        (Format.asprintf "%a" Dread.pp t.Threat.dread)
        derived
        (Derive.access_name row.paper_policy)
        (if avg_match && pol_match then "ok" else "MISMATCH"))
    Catalog.rows;
  Printf.printf
    "\nDREAD averages recomputed: %d/16 match the paper.\n\
     Policy cells re-derived:   %d/16 match the paper.\n\
     Residual-risk rows (policy cannot exclude the attack operation): %s\n"
    !avg_ok !pol_ok
    (String.concat ", "
       (List.map
          (fun (t : Threat.t) -> t.Threat.id)
          (List.filter Threat.residual_risk Catalog.threats)))

(* ------------------------------------------------------------------ *)
(* Fig. 1                                                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Fig. 1: secure product development life-cycle";
  Format.printf "%a@." Lifecycle.Phases.pp_pipeline ();
  (* walk the pipeline concretely for the car use case *)
  subsection "Walkthrough on the connected-car use case";
  let model = Catalog.model () in
  let report = Secpol.Pipeline.derive model in
  Printf.printf
    "assets identified:        %d\n\
     entry points enumerated:  %d\n\
     threats identified:       %d (STRIDE-categorised)\n\
     threats rated:            mean DREAD %.2f, max %.2f\n\
     countermeasures:          %d policies (all machine-enforceable)\n\
     security model:           policy %s v%d, %d compiled rules, default %s\n\
     static validation:        %d conflicts, %d shadowed rules\n\
     sealed update bundle:     checksum %s\n"
    (List.length model.Secpol_threat.Model.assets)
    (List.length model.Secpol_threat.Model.entry_points)
    (List.length model.Secpol_threat.Model.threats)
    (Secpol_threat.Risk.mean_risk model.Secpol_threat.Model.threats)
    (List.fold_left (fun acc t -> max acc (Threat.risk t)) 0.0
       model.Secpol_threat.Model.threats)
    (List.length model.Secpol_threat.Model.countermeasures)
    report.Secpol.Pipeline.db.Policy.Ir.name
    report.Secpol.Pipeline.db.Policy.Ir.version
    (List.length report.Secpol.Pipeline.db.Policy.Ir.rules)
    (Policy.Ast.decision_name report.Secpol.Pipeline.db.Policy.Ir.default)
    (List.length report.Secpol.Pipeline.conflicts)
    (List.length report.Secpol.Pipeline.shadowed)
    (String.sub report.Secpol.Pipeline.bundle.Policy.Update.checksum 0 16)

(* ------------------------------------------------------------------ *)
(* Fig. 2                                                              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2: connected-car components on the shared CAN bus";
  List.iter
    (fun node ->
      let tx = V.Messages.produced_by node in
      let rx = V.Messages.consumed_by node in
      Printf.printf "%-14s TX: %-58s RX: %s\n" node
        (String.concat ", " (List.map (fun (m : V.Messages.t) -> m.name) tx))
        (String.concat ", " (List.map (fun (m : V.Messages.t) -> m.name) rx)))
    V.Names.nodes;
  subsection "Live connectivity (1 s of simulated traffic)";
  let car = V.Car.create () in
  V.Car.run car ~seconds:1.0;
  Printf.printf "bus utilisation: %.1f%%  frames on the bus: %d\n"
    (100.0 *. Can.Bus.utilisation car.V.Car.bus)
    (Can.Bus.frames_sent car.V.Car.bus);
  List.iter
    (fun node ->
      let stats =
        Can.Controller.stats (Can.Node.controller (V.Car.node car node))
      in
      Printf.printf "%-14s %s\n" node
        (Format.asprintf "%a" Can.Controller.pp_stats stats))
    V.Names.nodes

(* ------------------------------------------------------------------ *)
(* Fig. 3                                                              *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Fig. 3: CAN node internals (transceiver / controller / processor)";
  let frame = Can.Frame.data_std V.Messages.ecu_status "\x01\x00\x00\x00" in
  Format.printf "frame:                 %a@." Can.Frame.pp frame;
  let wire = Can.Transceiver.transmit frame in
  Printf.printf
    "transceiver (TX):      %d wire bits (incl. stuffing + trailer), %.1f us \
     at 500 kbit/s\n"
    (List.length wire)
    (1e6 *. Can.Frame.transmission_time frame ~bitrate:500_000.0);
  let rx = Can.Transceiver.receive wire in
  (match rx with
  | Can.Transceiver.Frame f ->
      Format.printf "transceiver (RX):      decoded %a (CRC ok)@." Can.Frame.pp f
  | Can.Transceiver.Line_error e ->
      Printf.printf "transceiver (RX):      unexpected %s\n"
        (Can.Transceiver.line_error_name e));
  let controller = Can.Controller.create ~name:"ev_ecu" () in
  Can.Controller.set_filters controller (V.Ecu.software_filters V.Names.ev_ecu);
  (match Can.Controller.receive controller rx with
  | Can.Controller.Deliver _ ->
      Printf.printf "controller:            hmm, ev_ecu does not consume ecu_status\n"
  | Can.Controller.Filtered _ ->
      Printf.printf
        "controller (ev_ecu):   frame decoded, dropped by acceptance filter \
         (not a consumer)\n"
  | Can.Controller.Line_error _ -> ());
  let controller2 = Can.Controller.create ~name:"infotainment" () in
  Can.Controller.set_filters controller2
    (V.Ecu.software_filters V.Names.infotainment);
  (match Can.Controller.receive controller2 rx with
  | Can.Controller.Deliver f ->
      Format.printf
        "controller (infot.):   accepted %a -> processor callback@."
        Can.Frame.pp f
  | Can.Controller.Filtered _ | Can.Controller.Line_error _ ->
      Printf.printf "controller (infot.):   unexpected drop\n");
  subsection "Line-error handling";
  let rng = Secpol_sim.Rng.create 9L in
  let corrupted = Can.Transceiver.corrupt rng wire in
  (match Can.Transceiver.receive corrupted with
  | Can.Transceiver.Line_error e ->
      Printf.printf
        "single bit flip:       classified as %s; REC bumps, sender retransmits\n"
        (Can.Transceiver.line_error_name e)
  | Can.Transceiver.Frame _ ->
      Printf.printf "single bit flip:       slipped through (possible but rare)\n")

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Fig. 4: CAN node with integrated hardware policy engine";
  let engine = V.Policy_map.engine (V.Policy_map.baseline ()) in
  let cfg =
    V.Policy_map.hpe_config_for engine ~mode:V.Modes.Normal
      ~node:V.Names.infotainment
  in
  Format.printf "infotainment HPE config (normal mode): %a@." Hpe.Config.pp cfg;
  let sim = Secpol_sim.Engine.create () in
  let bus = Can.Bus.create ~bitrate:500_000.0 sim in
  let sender = Can.Node.create ~name:"peer" bus in
  let node = Can.Node.create ~name:V.Names.infotainment bus in
  let hpe = Hpe.Engine.install node in
  (match Hpe.Engine.provision hpe cfg with
  | Ok () -> Printf.printf "provisioned through the register file and locked.\n"
  | Error e -> Printf.printf "provisioning failed: %s\n" e);
  let try_read name id =
    ignore (Can.Node.send sender (Can.Frame.data_std id "\x01"));
    Secpol_sim.Engine.run_until sim (Secpol_sim.Engine.now sim +. 0.01);
    Printf.printf "  reading filter: %-20s (0x%03x) -> %s\n" name id
      (if
         List.exists
           (fun (f : Can.Frame.t) -> Can.Identifier.raw f.id = id)
           (Can.Node.received node)
       then "GRANT (processor sees it)"
       else "BLOCK")
  in
  let try_write name id =
    let ok = Can.Node.send node (Can.Frame.data_std id "\x00") in
    Printf.printf "  writing filter: %-20s (0x%03x) -> %s\n" name id
      (if ok then "GRANT (reaches the bus)" else "BLOCK")
  in
  subsection "Decision block in action";
  try_read "accel_status" V.Messages.accel_status;
  try_read "ecu_command" V.Messages.ecu_command;
  try_write "media_status" V.Messages.media_status;
  try_write "ecu_command (spoof)" V.Messages.ecu_command;
  Format.printf "%a@."
    (fun ppf () -> Hpe.Engine.pp_stats ppf hpe)
    ();
  subsection "Transparency to (compromised) firmware";
  (match
     Hpe.Registers.write_reg (Hpe.Engine.registers hpe)
       ~addr:Hpe.Registers.cmd_clear 0
   with
  | Ok () -> Printf.printf "register write: accepted (BUG)\n"
  | Error e -> Printf.printf "firmware tries to clear the lists: refused (%s)\n" e)

(* ------------------------------------------------------------------ *)
(* Q1: the attack matrix                                               *)
(* ------------------------------------------------------------------ *)

let q1 () =
  section "Q1: Table-I attack scenarios vs enforcement level";
  let summaries = Campaign.table () in
  Printf.printf "%-40s %-8s %-12s %-12s %-10s\n" "threat" "paper" "none" "software"
    "hpe";
  let outcome_of (s : Campaign.summary) id =
    let o =
      List.find
        (fun (o : Scenarios.outcome) -> o.threat_id = id)
        s.Campaign.outcomes
    in
    if o.Scenarios.succeeded then "SUCCEEDS" else "blocked"
  in
  List.iter
    (fun (row : Catalog.row) ->
      let id = row.threat.Threat.id in
      Printf.printf "%-40s %-8s %-12s %-12s %-10s\n" id
        (Derive.access_name row.paper_policy)
        (outcome_of (List.nth summaries 0) id)
        (outcome_of (List.nth summaries 1) id)
        (outcome_of (List.nth summaries 2) id))
    Catalog.rows;
  print_newline ();
  List.iter
    (fun s -> Format.printf "%a@." Campaign.pp_summary s)
    summaries;
  Printf.printf
    "\nPaper expectation: unprotected, every attack lands; with the HPE and \
     the least-privilege policy,\nexactly the W/RW (residual) rows survive \
     — matches: %b\n"
    (Campaign.matches_paper summaries)

(* ------------------------------------------------------------------ *)
(* Q2: exposure window                                                 *)
(* ------------------------------------------------------------------ *)

let q2 () =
  section "Q2: threat-to-mitigation exposure window (500-trial Monte-Carlo)";
  let params = Lifecycle.Ota.default_params in
  let results = Lifecycle.Comparison.compare_all ~trials:500 ~target:0.95 ~params () in
  List.iter
    (fun r -> Format.printf "%a@.@." Lifecycle.Comparison.pp_result r)
    results;
  (match Lifecycle.Comparison.speedup results with
  | Some s ->
      Printf.printf
        "median speedup of the policy update over guideline redesign: %.0fx\n" s
  | None ->
      (* with 25%% recall no-shows the redesign path rarely reaches 95%%;
         report with the no-show fraction removed *)
      let params = { params with Lifecycle.Ota.recall_no_show = 0.0 } in
      let results =
        Lifecycle.Comparison.compare_all ~trials:500 ~target:0.95 ~params ()
      in
      (match Lifecycle.Comparison.speedup results with
      | Some s ->
          Printf.printf
            "recall no-shows make 95%% unreachable; with no-shows removed, \
             median speedup: %.0fx\n"
            s
      | None -> Printf.printf "speedup not computable\n"));
  subsection "Fleet protection over time (single draw)";
  let rng = Secpol_sim.Rng.create 42L in
  let ota = Lifecycle.Ota.simulate rng params Lifecycle.Ota.Over_the_air in
  let recall = Lifecycle.Ota.simulate rng params Lifecycle.Ota.Recall in
  Printf.printf "%-8s %-14s %-14s\n" "day" "OTA" "recall";
  List.iter
    (fun d ->
      Printf.printf "%-8.0f %13.1f%% %13.1f%%\n" d
        (100.0 *. ota.Lifecycle.Ota.protected_at d)
        (100.0 *. recall.Lifecycle.Ota.protected_at d))
    [ 1.0; 3.0; 7.0; 14.0; 30.0; 90.0; 180.0; 365.0 ]

(* ------------------------------------------------------------------ *)
(* Q3: firmware-compromise sweep                                       *)
(* ------------------------------------------------------------------ *)

let q3 () =
  section "Q3: containment as firmware compromise spreads";
  let counts = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let sw = Campaign.firmware_sweep Campaign.Software ~compromised_counts:counts in
  let hw = Campaign.firmware_sweep Campaign.Hardware ~compromised_counts:counts in
  Printf.printf "%-18s %-22s %-22s\n" "compromised nodes"
    "software filters" "hardware policy engine";
  Printf.printf "%-18s %-22s %-22s\n" "" "(forged delivered)" "(forged delivered)";
  List.iter2
    (fun (s : Campaign.sweep_point) (h : Campaign.sweep_point) ->
      Printf.printf "%-18d %-22s %-22s\n" s.Campaign.compromised
        (Printf.sprintf "%d/%d" s.Campaign.delivered s.Campaign.attack_frames)
        (Printf.sprintf "%d/%d" h.Campaign.delivered h.Campaign.attack_frames))
    sw hw;
  Printf.printf
    "\nPaper expectation: software acceptance filters live in firmware and \
     fall with it; the locked HPE keeps\nforged command frames off their \
     victims regardless of how far the compromise spreads.\n"

(* ------------------------------------------------------------------ *)
(* Q4: false blocks on benign traffic                                  *)
(* ------------------------------------------------------------------ *)

let q4 () =
  section "Q4: least privilege must not break legitimate function";
  Printf.printf "%-26s %-14s %-14s %-14s\n" "enforcement" "deliveries"
    "false blocks" "undelivered";
  List.iter
    (fun level ->
      let s = Campaign.benign_run ~seconds:5.0 level in
      Printf.printf "%-26s %-14d %-14d %-14d\n" (Campaign.level_name level)
        s.Campaign.deliveries s.Campaign.hpe_blocks s.Campaign.undelivered)
    [ Campaign.Off; Campaign.Software; Campaign.Hardware ];
  Printf.printf
    "\n(deliveries = frames accepted by designed consumers over 5 s; the HPE \
     row must show zero false blocks\nand zero undelivered designed frames)\n"

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

(* One measured row of the perf suite; ns/op and minor words/op from the
   bechamel OLS fit.  Collected across targets so `--json FILE` can emit a
   machine-readable report at exit (consumed by the CI bench-smoke job). *)
type perf_row = { bench : string; ns_per_op : float; minor_per_op : float }

let perf_rows : perf_row list ref = ref []

(* registry snapshot from the instrumented engine pass, folded into the
   JSON report as "telemetry" *)
let telemetry : Policy.Json.t option ref = ref None

(* `--quick` trades precision for wall-clock: enough samples for a sanity
   gate in CI, not for a publishable number. *)
let quick_mode = ref false

let json_file : string option ref = ref None

let check_speedup : float option ref = ref None

let check_batched : float option ref = ref None

(* trajectory gate: committed baseline artifacts to diff fresh ratio
   metrics against (see Protocol.check_ratio) *)
let baseline_file : string option ref = ref None

let parallel_baseline_file : string option ref = ref None

let tolerance = ref 0.10

(* manual-harness batched-vs-compiled result: (compiled-loop ns/req,
   decide_batch ns/req, speedup) *)
let batched_vs_compiled : (float * float * float) option ref = ref None

(* Minor-heap words as [Gc.minor_words] counts them.  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], whose [minor_words] on OCaml 5
   advances only at minor collections, so a row allocating a few
   thousand words per run read 0.0. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Bechamel.Measure.instance
    (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let limit, quota =
    if !quick_mode then (500, Time.second 0.05) else (2000, Time.second 0.5)
  in
  let cfg = Benchmark.cfg ~limit ~quota () in
  let raw =
    Benchmark.all cfg
      [ minor_words; Instance.monotonic_clock ]
      (Test.make_grouped ~name:"secpol" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan)
    | None -> Float.nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols minor_words raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) times []
    |> List.sort compare
    |> List.map (fun name ->
           {
             bench = name;
             ns_per_op = estimate times name;
             minor_per_op = estimate allocs name;
           })
  in
  perf_rows := !perf_rows @ rows;
  Printf.printf "%-58s %14s %14s\n" "benchmark" "ns/op" "minor w/op";
  List.iter
    (fun r ->
      Printf.printf "%-58s %14.1f %14.1f\n" r.bench r.ns_per_op r.minor_per_op)
    rows

(* the connected-car decision workload: every designed producer write and
   consumer read, plus the Table-I spoofed writes the policy denies *)
let car_workload () =
  let designed =
    List.concat_map
      (fun (m : V.Messages.t) ->
        let req subject op =
          {
            Policy.Ir.mode = "normal";
            subject = V.Names.asset_of_node subject;
            asset = m.asset;
            op;
            msg_id = Some m.id;
          }
        in
        List.map (fun p -> req p Policy.Ir.Write) m.producers
        @ List.map (fun c -> req c Policy.Ir.Read) m.consumers)
      V.Messages.all
  in
  let attacks =
    List.map
      (fun (m : V.Messages.t) ->
        {
          Policy.Ir.mode = "normal";
          subject = V.Names.asset_of_node V.Names.infotainment;
          asset = m.asset;
          op = Policy.Ir.Write;
          msg_id = Some m.id;
        })
      V.Messages.all
  in
  Array.of_list (designed @ attacks)

let perf () =
  section "Micro-benchmarks (Bechamel, OLS ns/op)";
  let open Bechamel in
  (* HPE lookup: one hit and one miss on the bitset approved list *)
  let ids =
    List.map (fun (m : V.Messages.t) -> Can.Identifier.standard m.id) V.Messages.all
  in
  let approved = Hpe.Approved_list.of_ids ids in
  let probe = Can.Identifier.standard V.Messages.ecu_command in
  let miss = Can.Identifier.standard 0x7ff in
  let bench_bitset =
    Test.make ~name:"hpe/approved-list/bitset"
      (Staged.stage (fun () ->
           ignore (Hpe.Approved_list.mem approved probe);
           ignore (Hpe.Approved_list.mem approved miss)))
  in
  (* policy decisions: the interpreted reference scan vs the compiled
     engine, over the connected-car workload (every designed producer
     write and consumer read, plus the Table-I spoofed writes the policy
     denies) *)
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let workload = car_workload () in
  let bench_decide name decide =
    let n = Array.length workload in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           let req = workload.(!i) in
           incr i;
           if !i = n then i := 0;
           ignore (decide req)))
  in
  let bench_interpreted =
    bench_decide "policy/engine/interpreted (car workload)"
      (Policy.Reference.decide (Policy.Reference.create db))
  in
  let bench_compiled =
    bench_decide "policy/engine/compiled (car workload)"
      (Policy.Engine.decide (Policy.Engine.create db))
  in
  Format.printf "compiled table: %a@." Policy.Table.pp_stats
    (Policy.Engine.table_stats (Policy.Engine.create db));
  (* policy parsing *)
  let source = Policy.Printer.to_string (V.Policy_map.baseline ()) in
  let bench_parse =
    Test.make ~name:"policy/parse baseline source"
      (Staged.stage (fun () -> ignore (Policy.Parser.parse source)))
  in
  (* SELinux server with and without AVC *)
  let os_db =
    Secpol_selinux.Policy_db.build_exn
      ~types:[ "media_t"; "exec_t" ]
      ~rules:
        [
          Secpol_selinux.Te_rule.allow ~source:"media_t" ~target:"exec_t"
            ~cls:"file" [ "read" ];
        ]
      ()
  in
  let srv_avc = Secpol_selinux.Server.create ~avc:true os_db in
  let srv_raw = Secpol_selinux.Server.create ~avc:false os_db in
  let sctx = Secpol_selinux.Context.make ~user:"u" ~role:"r" ~type_:"media_t" in
  let tctx = Secpol_selinux.Context.make ~user:"u" ~role:"r" ~type_:"exec_t" in
  let bench_avc =
    Test.make ~name:"selinux/check (avc)"
      (Staged.stage (fun () ->
           ignore
             (Secpol_selinux.Server.check srv_avc ~source:sctx ~target:tctx
                ~cls:"file" "read")))
  in
  let bench_noavc =
    Test.make ~name:"selinux/check (no avc)"
      (Staged.stage (fun () ->
           ignore
             (Secpol_selinux.Server.check srv_raw ~source:sctx ~target:tctx
                ~cls:"file" "read")))
  in
  (* frame codec *)
  let frame = Can.Frame.data_std V.Messages.ecu_status "\x01\x02\x03\x04" in
  let wire = Can.Frame.to_wire frame in
  let bench_encode =
    Test.make ~name:"can/frame/to_wire"
      (Staged.stage (fun () -> ignore (Can.Frame.to_wire frame)))
  in
  let bench_decode =
    Test.make ~name:"can/frame/of_wire"
      (Staged.stage (fun () -> ignore (Can.Frame.of_wire wire)))
  in
  (* end-to-end bus step: one frame across an 8-node bus, bare and with
     a provisioned, locked HPE on every node (its write gate at the
     sender, its read gate and integrity seal at each of the 7
     receivers) *)
  let hpe_config =
    Hpe.Config.make ~read_ids:[ V.Messages.ecu_status ]
      ~write_ids:[ V.Messages.ecu_status ] ()
  in
  let bench_bus ~name ~hpe =
    Test.make ~name
      (Staged.stage
         (let sim = Secpol_sim.Engine.create () in
          let bus = Can.Bus.create ~bitrate:500_000.0 sim in
          let node name =
            let n = Can.Node.create ~name bus in
            if hpe then
              Result.get_ok
                (Hpe.Engine.provision (Hpe.Engine.install n) hpe_config);
            n
          in
          let sender = node "sender" in
          for i = 1 to 7 do
            ignore (node (Printf.sprintf "n%d" i))
          done;
          fun () ->
            ignore (Can.Node.send sender frame);
            Secpol_sim.Engine.run_until sim
              (Secpol_sim.Engine.now sim +. 0.001)))
  in
  (* the seal every HPE gate call recomputes (DESIGN.md §8.1) *)
  let bench_seal =
    let regs = Hpe.Registers.create () in
    Result.get_ok (Hpe.Config.provision regs hpe_config ());
    Test.make ~name:"hpe/registers/integrity_ok"
      (Staged.stage (fun () -> ignore (Hpe.Registers.integrity_ok regs)))
  in
  run_bechamel
    [
      bench_bitset;
      bench_interpreted;
      bench_compiled;
      bench_parse;
      bench_avc;
      bench_noavc;
      bench_encode;
      bench_decode;
      bench_bus ~name:"can/bus/frame across 8 nodes" ~hpe:false;
      bench_bus ~name:"can/bus/frame across 8 HPE nodes" ~hpe:true;
      bench_seal;
    ];
  (* batched vs per-request compiled path, on the fixed protocol rather
     than bechamel: both sides get the *same* manual harness (whole-
     workload passes, median of repeats), so the ratio compares the two
     decision paths and not two measurement methodologies.  This is the
     ratio the trajectory gate tracks. *)
  subsection "Batched decision path (fixed protocol, median of repeats)";
  let n = Array.length workload in
  let rounds = if !quick_mode then 50 else 400 in
  let warmup, repeats = if !quick_mode then (2, 7) else (5, 21) in
  let engine_scalar = Policy.Engine.create db in
  let engine_batch = Policy.Engine.create db in
  let scalar () =
    for _ = 1 to rounds do
      for k = 0 to n - 1 do
        ignore (Policy.Engine.decide engine_scalar workload.(k))
      done
    done
  in
  let batch = Policy.Batch.create ~capacity:n () in
  Array.iter (fun req -> Policy.Batch.push batch req) workload;
  let out = Array.make n Policy.Ast.Deny in
  let batched () =
    for _ = 1 to rounds do
      Policy.Engine.decide_batch engine_batch batch ~out
    done
  in
  let ops = rounds * n in
  let per_req median_s = median_s /. float_of_int ops *. 1e9 in
  let minor_per_op f =
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int ops
  in
  (* start both measurements from the same heap shape: the bechamel suite
     above leaves an unpredictable minor/major heap behind, and the scalar
     loop's 20 w/op make its GC tax sensitive to that starting state *)
  Gc.compact ();
  let scalar_med, _ = Protocol.measure ~warmup ~repeats scalar in
  Gc.compact ();
  let batched_med, _ = Protocol.measure ~warmup ~repeats batched in
  let scalar_ns = per_req scalar_med and batched_ns = per_req batched_med in
  let scalar_minor = minor_per_op scalar in
  let batched_minor = minor_per_op batched in
  Printf.printf
    "protocol: %d warmup + %d timed repeats, %d passes x %d requests per \
     repeat, median reported\n"
    warmup repeats rounds n;
  Printf.printf "%-58s %14s %14s\n" "benchmark" "ns/op" "minor w/op";
  Printf.printf "%-58s %14.1f %14.1f\n"
    "policy/engine/compiled-loop (car workload)" scalar_ns scalar_minor;
  Printf.printf "%-58s %14.1f %14.1f\n"
    "policy/engine/decide_batch (car workload)" batched_ns batched_minor;
  let speedup = if batched_ns > 0.0 then scalar_ns /. batched_ns else 0.0 in
  Printf.printf "batched vs per-request compiled: %.2fx\n" speedup;
  batched_vs_compiled := Some (scalar_ns, batched_ns, speedup);
  perf_rows :=
    !perf_rows
    @ [
        {
          bench = "policy/engine/compiled-loop (car workload)";
          ns_per_op = scalar_ns;
          minor_per_op = scalar_minor;
        };
        {
          bench = "policy/engine/decide_batch (car workload)";
          ns_per_op = batched_ns;
          minor_per_op = batched_minor;
        };
      ];
  (* one extra pass through an obs-registered compiled engine: bechamel
     gives the OLS mean, the histogram gives the latency distribution *)
  let obs = Secpol_obs.Registry.create () in
  let engine = Policy.Engine.create ~obs db in
  let passes = if !quick_mode then 20 else 200 in
  for _ = 1 to passes do
    Array.iter (fun req -> ignore (Policy.Engine.decide engine req)) workload
  done;
  Format.printf "compiled decide latency: %a@." Secpol_obs.Histogram.pp_summary
    (Secpol_obs.Registry.histogram obs "policy.engine.decide_ns");
  telemetry := Some (Policy.Obs_json.registry obs)

(* ------------------------------------------------------------------ *)
(* Parallel scaling                                                    *)
(* ------------------------------------------------------------------ *)

type par_row = {
  domains : int;
  served : int;
  elapsed_s : float;
  throughput : float;  (** median over the protocol's repeats *)
}

let par_rows : par_row list ref = ref []

let parallel_json_file : string option ref = ref None

let parscale () =
  section "Parallel scaling: shard-per-domain decision serving (car workload)";
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let reqs = car_workload () in
  let n = Array.length reqs in
  let total = if !quick_mode then 50_000 else 400_000 in
  (* strictly increasing timestamps so rate-limited rules are exercised
     identically across runs *)
  let work =
    Array.init total (fun k -> (float_of_int k *. 1e-3, reqs.(k mod n)))
  in
  (* the reference every run must reproduce: one engine deciding the
     whole workload in input order *)
  let expected =
    let engine = Policy.Engine.create db in
    Array.map
      (fun (now, req) -> (Policy.Engine.decide ~now engine req).decision)
      work
  in
  let ladder = [ 1; 2; 4; 8 ] in
  let repeats = if !quick_mode then 2 else 3 in
  Printf.printf
    "%d requests per run over %d distinct request shapes, partitioned by \
     subject, one batch job per shard on a fresh pool (host has %d \
     core(s));\n\
     domain ladder %s, 1 warmup + %d timed repeats per rung, median \
     throughput reported\n"
    total n
    (Domain.recommended_domain_count ())
    (String.concat "/" (List.map string_of_int ladder))
    repeats;
  Printf.printf "%-22s %12s %14s   %s\n" "configuration" "elapsed s" "req/s"
    "per-shard";
  let run domains =
    let r = Par.Serve.run ~domains db work in
    if r.Par.Serve.decisions <> expected then begin
      Printf.eprintf
        "parscale: %d-domain decisions diverge from the in-order engine\n"
        domains;
      exit 4
    end;
    r.Par.Serve.stats
  in
  List.iter
    (fun domains ->
      (* warmup run + [repeats] timed runs; keep the run with the median
         throughput so elapsed/throughput/per-shard stay one consistent
         observation *)
      ignore (run domains);
      let sorted =
        List.sort
          (fun (a : Par.Serve.stats) b -> compare a.throughput b.throughput)
          (List.init repeats (fun _ -> run domains))
      in
      let s = List.nth sorted (repeats / 2) in
      Printf.printf "%-22s %12.4f %14.0f   %s\n"
        (Printf.sprintf "%d domain(s)" domains)
        s.elapsed_s s.throughput
        (String.concat "+"
           (Array.to_list (Array.map string_of_int s.per_shard)));
      par_rows :=
        !par_rows
        @ [
            {
              domains;
              served = s.served;
              elapsed_s = s.elapsed_s;
              throughput = s.throughput;
            };
          ])
    ladder

(* top-rung over 1-domain throughput — ratios survive a machine change,
   absolute req/s does not, which is why the trajectory gate tracks it *)
let par_scaling () =
  match
    ( List.find_opt (fun r -> r.domains = 1) !par_rows,
      List.fold_left
        (fun acc r -> match acc with
          | Some b when b.domains >= r.domains -> acc
          | _ -> Some r)
        None !par_rows )
  with
  | Some base, Some top when base.throughput > 0.0 ->
      Policy.Json.Float (top.throughput /. base.throughput)
  | _ -> Policy.Json.Null

let par_report () =
  Policy.Json.Obj
    [
      ("schema", Policy.Json.Int 3);
      ("suite", Policy.Json.String "secpol-parscale");
      ("quick", Policy.Json.Bool !quick_mode);
      ("partition_key", Policy.Json.String "subject");
      ("meta", Protocol.meta ());
      ( "runs",
        Policy.Json.List
          (List.map
             (fun r ->
               Policy.Json.Obj
                 [
                   ("domains", Policy.Json.Int r.domains);
                   ("served", Policy.Json.Int r.served);
                   ("elapsed_s", Policy.Json.Float r.elapsed_s);
                   ("throughput_per_s", Policy.Json.Float r.throughput);
                 ])
             !par_rows) );
      ("batched_scaling", par_scaling ());
    ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablations (design choices from DESIGN.md)";
  subsection "Conflict resolution strategy";
  (* a policy where an update appends a deny after a broad allow *)
  let src =
    "policy \"abl\" version 1 { default deny; asset ev_ecu { allow rw from \
     any; deny write from infotainment; } }"
  in
  let db =
    match Policy.Compile.of_source src with Ok db -> db | Error e -> failwith e
  in
  let req =
    {
      Policy.Ir.mode = "normal";
      subject = "infotainment";
      asset = "ev_ecu";
      op = Policy.Ir.Write;
      msg_id = None;
    }
  in
  List.iter
    (fun (name, strategy) ->
      let e = Policy.Engine.create ~strategy db in
      Printf.printf
        "  %-16s infotainment write on ev_ecu -> %s\n" name
        (if Policy.Engine.permitted e req then "ALLOWED (unsafe)" else "denied")
    )
    [
      ("deny-overrides", Policy.Engine.Deny_overrides);
      ("first-match", Policy.Engine.First_match);
      ("allow-overrides", Policy.Engine.Allow_overrides);
    ];
  Printf.printf
    "  -> deny-overrides is the fail-safe composition; first-match depends \
     on rule order; allow-overrides is unsafe here.\n";
  subsection "Mode-scoped vs mode-flattened policy";
  let flatten (p : Policy.Ast.policy) =
    {
      p with
      Policy.Ast.sections =
        List.map
          (function
            | Policy.Ast.Modes (_, blocks) ->
                (* drop the scope: rules apply in every mode *)
                Policy.Ast.Modes
                  (List.map V.Modes.name V.Modes.all, blocks)
            | s -> s)
          p.Policy.Ast.sections;
    }
  in
  let scoped = V.Policy_map.engine (V.Policy_map.baseline ()) in
  let flat = V.Policy_map.engine (flatten (V.Policy_map.baseline ())) in
  let diag_in_normal engine =
    Policy.Engine.permitted engine
      {
        Policy.Ir.mode = "normal";
        subject = V.Names.asset_connectivity;
        asset = V.Names.asset_safety_critical;
        op = Policy.Ir.Write;
        msg_id = Some V.Messages.diag_request;
      }
  in
  Printf.printf
    "  diagnostic write in normal mode: scoped policy -> %s, flattened -> %s\n"
    (if diag_in_normal scoped then "ALLOWED (leak)" else "denied")
    (if diag_in_normal flat then "ALLOWED (leak)" else "denied");
  Printf.printf
    "  -> without mode scoping, remote-diagnostic privileges leak into \
     normal driving (Table I row 4's attack surface).\n";
  subsection "HPE lock bit";
  let sim = Secpol_sim.Engine.create () in
  let bus = Can.Bus.create ~bitrate:500_000.0 sim in
  let node = Can.Node.create ~name:"n" bus in
  let hpe = Hpe.Engine.install node in
  let cfg = (Hpe.Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ()) in
  (match Hpe.Engine.provision_unlocked hpe cfg with
  | Ok () -> ()
  | Error e -> failwith e);
  let attempt () =
    Hpe.Registers.write_reg (Hpe.Engine.registers hpe)
      ~addr:Hpe.Registers.cmd_clear 0
  in
  Printf.printf "  unlocked engine, firmware clears the lists: %s\n"
    (match attempt () with Ok () -> "SUCCEEDS (defence gone)" | Error _ -> "refused");
  Hpe.Registers.hard_reset (Hpe.Engine.registers hpe);
  (match Hpe.Engine.provision hpe cfg with Ok () -> () | Error e -> failwith e);
  Printf.printf "  locked engine,   firmware clears the lists: %s\n"
    (match attempt () with Ok () -> "SUCCEEDS (BUG)" | Error _ -> "refused");
  subsection "Guideline architecture (gateway segmentation) vs policy (HPE)";
  let spoof_from_infotainment msg_id =
    (* segmented car: infotainment compromised on the comfort bus *)
    let seg =
      V.Topology_car.create ~placement:`Central
        ~spec:(V.Segment_map.two_segment_spec ())
        ()
    in
    V.Topology_car.run seg ~seconds:0.3;
    let node = V.Topology_car.node seg V.Names.infotainment in
    Can.Controller.set_filters (Can.Node.controller node) [];
    ignore
      (Can.Node.send node
         (Can.Frame.data_std msg_id (String.make 1 V.Messages.cmd_disable)));
    V.Topology_car.run seg ~seconds:0.3;
    (* HPE car: same attack on the flat bus *)
    let hpe_car = V.Car.create ~enforcement:(V.Car.Hpe (V.Policy_map.baseline ())) () in
    V.Car.run hpe_car ~seconds:0.3;
    let atk = V.Car.node hpe_car V.Names.infotainment in
    Can.Controller.set_filters (Can.Node.controller atk) [];
    ignore
      (Can.Node.send atk
         (Can.Frame.data_std msg_id (String.make 1 V.Messages.cmd_disable)));
    V.Car.run hpe_car ~seconds:0.3;
    (V.Topology_car.state seg, hpe_car.V.Car.state)
  in
  let seg_eps, hpe_eps = spoof_from_infotainment V.Messages.eps_command in
  Printf.printf
    "  spoofed eps_command (never crosses segments):  gateway %s | HPE %s\n"
    (if seg_eps.V.State.eps_active then "blocks" else "FORWARDS")
    (if hpe_eps.V.State.eps_active then "blocks" else "FORWARDS");
  let seg_ecu, hpe_ecu = spoof_from_infotainment V.Messages.ecu_command in
  Printf.printf
    "  spoofed ecu_command (crosses legitimately):    gateway %s | HPE %s\n"
    (if seg_ecu.V.State.ev_ecu_enabled then "blocks" else "FORWARDS (residual)")
    (if hpe_ecu.V.State.ev_ecu_enabled then "blocks" else "FORWARDS");
  Printf.printf
    "  -> ID-granular segmentation only protects IDs that never cross; the \
     per-node HPE write filter\n     distinguishes *who* transmits, which is \
     the paper's argument for policy enforcement in the node.\n"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures                               *)
(* ------------------------------------------------------------------ *)

let extension () =
  section "Extensions: behavioural & situational policies, spoof detection, fleet integrity";
  subsection "Residual row 14 closed by a situational policy update";
  let relock_after_crash policy =
    let car = V.Car.create ~enforcement:(V.Car.Hpe policy) () in
    V.Car.run car ~seconds:0.3;
    V.Safety.trigger_crash (V.Car.node car V.Names.safety) car.V.Car.state;
    V.Car.run car ~seconds:0.1;
    V.Car.set_mode car V.Modes.Fail_safe;
    let node = V.Car.node car V.Names.telematics in
    Can.Controller.set_filters (Can.Node.controller node) [];
    let _ =
      Can.Node.send node
        (Can.Frame.data_std V.Messages.lock_command
           (String.make 1 V.Messages.cmd_lock))
    in
    V.Car.run car ~seconds:0.3;
    car.V.Car.state.V.State.doors_locked
  in
  Printf.printf
    "  baseline policy (Table-I W row):   doors %s after the forged relock\n"
    (if relock_after_crash (V.Policy_map.baseline ()) then
       "RELOCKED (occupants trapped — residual risk)"
     else "open");
  Printf.printf
    "  hardened policy (situational deny): doors %s after the forged relock\n"
    (if relock_after_crash (V.Policy_map.hardened ()) then "RELOCKED (BUG)"
     else "stay open (rescue access preserved)");
  subsection "Replay storm shaped by a behavioural budget";
  let car = V.Car.create ~enforcement:(V.Car.Hpe (V.Policy_map.hardened ())) () in
  V.Car.run car ~seconds:0.3;
  let node = V.Car.node car V.Names.telematics in
  Can.Controller.set_filters (Can.Node.controller node) [];
  let accepted = ref 0 in
  for _ = 1 to 20 do
    if
      Can.Node.send node
        (Can.Frame.data_std V.Messages.lock_command
           (String.make 1 V.Messages.cmd_unlock))
    then incr accepted
  done;
  let hpe = Option.get (V.Car.hpe car V.Names.telematics) in
  Printf.printf
    "  20 replayed lock commands from a compromised legitimate writer: %d \
     reach the bus (budget: 2 per 10 s; %d rate-blocked)\n"
    !accepted
    (Hpe.Engine.rate_blocks hpe);
  subsection "Impersonation (spoof) detection";
  let car = V.Car.create ~enforcement:(V.Car.Hpe (V.Policy_map.baseline ())) () in
  V.Car.run car ~seconds:0.3;
  let alien = Can.Node.create ~name:"alien" car.V.Car.bus in
  for _ = 1 to 5 do
    ignore
      (Can.Node.send alien (Can.Frame.data_std V.Messages.brake_status "\xFF"))
  done;
  V.Car.run car ~seconds:0.3;
  let sensors_hpe = Option.get (V.Car.hpe car V.Names.sensors) in
  Printf.printf
    "  alien station forges 5 brake_status frames: the sensor cluster's HPE \
     raises %d spoof alerts\n  (it is the sole designed producer of that ID; \
     alert-only — feeds intrusion detection)\n"
    (Hpe.Engine.spoof_alerts sensors_hpe);
  subsection "Fleet distribution with hostile deliveries";
  (match Lifecycle.Fleet.create ~size:1000 (V.Policy_map.baseline ()) with
  | Error e -> Printf.printf "  fleet creation failed: %s\n" e
  | Ok fleet -> (
      let v2 = Policy.Update.bundle (V.Policy_map.hardened ()) in
      match Lifecycle.Fleet.distribute fleet ~corruption:0.2 v2 with
      | Error e -> Printf.printf "  distribution failed: %s\n" e
      | Ok dist ->
          Printf.printf
            "  1000 devices, 20%% of deliveries tampered in transit: %d \
             corrupt bundles rejected by device\n  integrity checks; fleet \
             versions after the campaign: %s\n"
            dist.Lifecycle.Fleet.tampered_rejections
            (String.concat ", "
               (List.map
                  (fun (v, n) -> Printf.sprintf "v%d: %d" v n)
                  (Lifecycle.Fleet.versions fleet)))))

(* ------------------------------------------------------------------ *)
(* Fleet campaign                                                      *)
(* ------------------------------------------------------------------ *)

let campaign_json_file : string option ref = ref None

(* (report json, median elapsed seconds over the protocol's repeats) *)
let campaign_result : (Policy.Json.t * float) option ref = ref None

let fleet_campaign () =
  section "Fleet campaign: verifier-gated staged rollout under live threat";
  let module FC = Lifecycle.Campaign in
  let fleet = if !quick_mode then 20_000 else 200_000 in
  let domains = max 1 (min 8 (Domain.recommended_domain_count () - 1)) in
  let repeats = if !quick_mode then 2 else 3 in
  let cfg = FC.default_config ~fleet ~seed:42L ~domains ~quick:!quick_mode () in
  let last = ref None in
  let run () =
    match FC.run cfg with
    | Error e -> failwith ("campaign bench: " ^ e)
    | Ok r -> last := Some r
  in
  let median_s, _ = Protocol.measure ~warmup:1 ~repeats run in
  match !last with
  | None -> ()
  | Some r ->
      Printf.printf
        "%d vehicles over %d domain(s), two shared decision tables, 1 warmup \
         + %d timed repeats\n"
        fleet domains repeats;
      Printf.printf
        "  median campaign wall time %.2f s; %d benign and probe decisions \
         (%.0f/s in the reported run)\n"
        median_s r.FC.decisions r.FC.throughput_per_s;
      Printf.printf
        "  gate %s (widened %d); ota p50 %.2f d / p99 %.2f d vs recall p50 \
         %.2f d -> %.1fx\n"
        (if r.FC.gate.FC.passed then "passed" else "REFUSED")
        r.FC.gate.FC.widened r.FC.ota.FC.p50_days r.FC.ota.FC.p99_days
        r.FC.recall.FC.p50_days r.FC.speedup_p50;
      campaign_result := Some (FC.to_json r, median_s)

let campaign_report () =
  match !campaign_result with
  | None -> Policy.Json.Null
  | Some (report, median_s) ->
      Policy.Json.Obj
        [
          ("schema", Policy.Json.Int 1);
          ("suite", Policy.Json.String "secpol-campaign-bench");
          ("quick", Policy.Json.Bool !quick_mode);
          ("meta", Protocol.meta ());
          ("median_elapsed_s", Policy.Json.Float median_s);
          ("report", report);
        ]

(* ------------------------------------------------------------------ *)
(* Decision service                                                    *)
(* ------------------------------------------------------------------ *)

type serve_row = {
  s_domains : int;
  s_requests : int;
  s_batch : int;
  s_elapsed_s : float;
  s_throughput : float;
}

let serve_rows : serve_row list ref = ref []

let serve_json_file : string option ref = ref None

(* End-to-end cost of the daemon: wire codec + connection thread +
   admission + pool hand-off + decide_batch, measured from a client over
   the Unix socket — the number a deployment actually sees, as opposed
   to parscale's in-process shard throughput. *)
let serve_bench () =
  section "Decision service: secpold end to end over its unix socket";
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let reqs = car_workload () in
  let n = Array.length reqs in
  let batch = 512 in
  let batches = if !quick_mode then 20 else 200 in
  let total = batch * batches in
  let batch_reqs = Array.init batch (fun k -> reqs.(k mod n)) in
  let warmup, repeats = if !quick_mode then (1, 3) else (2, 7) in
  let ladder = [ 1; 2; 4; 8 ] in
  Printf.printf
    "%d requests per timed run (%d batches x %d), one client connection;\n\
     domain ladder %s, %d warmup + %d timed repeats per rung, median \
     reported (host has %d core(s))\n"
    total batches batch
    (String.concat "/" (List.map string_of_int ladder))
    warmup repeats
    (Domain.recommended_domain_count ());
  Printf.printf "%-22s %12s %14s\n" "configuration" "elapsed s" "req/s";
  List.iter
    (fun domains ->
      let socket_path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "secpold-bench-%d-%d.sock" (Unix.getpid ()) domains)
      in
      let config =
        { Serve_daemon.default_config with socket_path; domains }
      in
      let daemon = Serve_daemon.start ~config db in
      Fun.protect
        ~finally:(fun () -> Serve_daemon.stop daemon)
        (fun () ->
          let client = Serve_client.connect socket_path in
          Fun.protect
            ~finally:(fun () -> Serve_client.close client)
            (fun () ->
              let run () =
                for _ = 1 to batches do
                  let b = Serve_client.decide client batch_reqs in
                  if b.Serve_client.degraded || b.Serve_client.shed then
                    failwith "serve bench: degraded or shed response"
                done
              in
              let median_s, _ = Protocol.measure ~warmup ~repeats run in
              let throughput = float_of_int total /. median_s in
              Printf.printf "%-22s %12.4f %14.0f\n"
                (Printf.sprintf "%d domain(s)" domains)
                median_s throughput;
              serve_rows :=
                !serve_rows
                @ [
                    {
                      s_domains = domains;
                      s_requests = total;
                      s_batch = batch;
                      s_elapsed_s = median_s;
                      s_throughput = throughput;
                    };
                  ])))
    ladder

let serve_report () =
  let scaling =
    match
      ( List.find_opt (fun r -> r.s_domains = 1) !serve_rows,
        List.fold_left
          (fun acc r ->
            match acc with
            | Some b when b.s_domains >= r.s_domains -> acc
            | _ -> Some r)
          None !serve_rows )
    with
    | Some base, Some top when base.s_throughput > 0.0 ->
        Policy.Json.Float (top.s_throughput /. base.s_throughput)
    | _ -> Policy.Json.Null
  in
  Policy.Json.Obj
    [
      ("schema", Policy.Json.Int 1);
      ("suite", Policy.Json.String "secpol-serve");
      ("quick", Policy.Json.Bool !quick_mode);
      ("transport", Policy.Json.String "unix-socket");
      ("meta", Protocol.meta ());
      ( "runs",
        Policy.Json.List
          (List.map
             (fun r ->
               Policy.Json.Obj
                 [
                   ("domains", Policy.Json.Int r.s_domains);
                   ("requests", Policy.Json.Int r.s_requests);
                   ("batch", Policy.Json.Int r.s_batch);
                   ("elapsed_s", Policy.Json.Float r.s_elapsed_s);
                   ("throughput_per_s", Policy.Json.Float r.s_throughput);
                 ])
             !serve_rows) );
      ("scaling", scaling);
    ]

let json_float f =
  if Float.is_finite f then Policy.Json.Float f else Policy.Json.Null

(* ------------------------------------------------------------------ *)
(* Topology: central vs distributed enforcement                        *)
(* ------------------------------------------------------------------ *)

module Faults = Secpol_faults
module Tcar = V.Topology_car
module Topology = Can.Topology

let topology_json_file : string option ref = ref None

let topology_baseline_file : string option ref = ref None

let topology_report : Policy.Json.t option ref = ref None

(* One gate crossing of a topology drive: the segment bus it was traced
   on, the node whose HPE gate the frame crossed, in which direction, and
   whether the live car's HPE blocked it there. *)
type crossing = {
  seg : string;
  time : float;
  node : string;
  tx : bool;
  frame : Can.Frame.t;
  blocked : bool;
}

(* Every gate crossing, across every segment bus: one tx crossing per
   transmission attempt at the sender's gate, one rx crossing per
   reception at the receiver's. *)
let topo_crossings car =
  List.concat_map
    (fun seg ->
      List.map
        (fun (e : Can.Trace.entry) ->
          let crossing node tx blocked =
            { seg; time = e.time; node; tx; frame = e.frame; blocked }
          in
          match e.event with
          | Can.Trace.Tx_ok | Tx_error | Tx_abandoned ->
              crossing e.node true false
          | Tx_refused -> crossing e.node true true
          | Rx_blocked (r, gate) -> crossing r false (gate = "hpe")
          | Rx_delivered r | Rx_filtered r | Rx_line_error r ->
              crossing r false false)
        (Can.Trace.entries (Can.Bus.trace (Tcar.bus car seg))))
    (Tcar.segments car)
  |> Array.of_list

(* A bank of real HPEs, one per (node, config), installed on nodes of a
   private bus that never runs: the replay calls their gates directly.
   Each replay re-provisions every engine first, so rate budgets start
   fresh, and answers one verdict per crossing.  A node without an engine
   passes its traffic, as an unguarded ECU would. *)
let hpe_bank configs =
  let bus = Can.Bus.create ~bitrate:500_000.0 (Secpol_sim.Engine.create ()) in
  let engines = Hashtbl.create 16 in
  let bank =
    List.map
      (fun (node, cfg) ->
        let hpe = Hpe.Engine.install (Can.Node.create ~name:node bus) in
        Hashtbl.replace engines node hpe;
        (hpe, cfg))
      configs
  in
  fun crossings ->
    List.iter
      (fun (hpe, cfg) ->
        Hpe.Registers.hard_reset (Hpe.Engine.registers hpe);
        Result.iter_error failwith (Hpe.Engine.provision hpe cfg))
      bank;
    Array.map
      (fun c ->
        match Hashtbl.find_opt engines c.node with
        | None -> true
        | Some hpe when c.tx -> Hpe.Engine.gate_tx hpe ~now:c.time c.frame
        | Some hpe -> Hpe.Engine.gate_rx hpe c.frame)
      crossings

let topology_bench () =
  section "Topology: enforcement placement over the four-segment car";
  let seconds = if !quick_mode then 1.0 else 2.0 in
  let warmup, repeats = if !quick_mode then (1, 5) else (3, 11) in
  let car = Tcar.create ~seed:42L ~placement:`Distributed () in
  Tcar.run car ~seconds;
  let topo = Tcar.topology car in
  subsection
    (Printf.sprintf "Per-segment load (%.1f s of benign traffic)" seconds);
  Printf.printf "%-14s %12s %10s %12s\n" "segment" "utilisation" "frames"
    "deliveries";
  let segment_rows =
    List.map
      (fun seg ->
        let bus = Tcar.bus car seg in
        let util = Can.Bus.utilisation bus in
        let frames = Can.Bus.frames_sent bus in
        let deliveries = Tcar.deliveries_in car seg in
        Printf.printf "%-14s %11.1f%% %10d %12d\n" seg (100.0 *. util) frames
          deliveries;
        Policy.Json.Obj
          [
            ("name", Policy.Json.String seg);
            ("utilisation", json_float util);
            ("frames_sent", Policy.Json.Int frames);
            ("deliveries", Policy.Json.Int deliveries);
          ])
      (Tcar.segments car)
  in
  (* Distributed placement replays EVERY gate crossing through one HPE
     per ECU; central placement evaluates only what reaches a gateway:
     each transmission is checked once per gateway attached to its
     segment, by an HPE whose reading list is that gateway's crossing
     whitelist.  Same captured traffic, the same gate code, two
     enforcement workloads. *)
  subsection "Enforcement replay: per-node HPEs vs gateway whitelists";
  let events = topo_crossings car in
  let engine = V.Policy_map.engine (V.Policy_map.baseline ()) in
  let guarded = List.map fst (Tcar.hpes car) in
  let distributed =
    hpe_bank
      (List.map
         (fun node ->
           ( node,
             V.Policy_map.hpe_config_for engine ~mode:V.Modes.Normal ~node ))
         guarded)
  in
  let gateway_names = Topology.gateway_names topo in
  let central =
    hpe_bank
      (List.map
         (fun gw ->
           let ids =
             Topology.crossing_ids topo ~gateway:gw `A_to_b
             @ Topology.crossing_ids topo ~gateway:gw `B_to_a
             |> List.sort_uniq compare
           in
           (gw, Hpe.Config.make ~read_ids:ids ~write_ids:[] ()))
         gateway_names)
  in
  (* each transmission reaches every gateway attached to its segment *)
  let central_events =
    Array.of_list
      (List.concat_map
         (fun c ->
           if c.tx && not c.blocked then
             List.filter_map
               (fun gw ->
                 let a, b = Topology.link topo gw in
                 if a = c.seg || b = c.seg then
                   Some { c with node = gw; tx = false }
                 else None)
               gateway_names
           else [])
         (Array.to_list events))
  in
  (* self-check: at every HPE-guarded node the replay must reproduce the
     verdict the live car's gate gave the same crossing *)
  let dist_verdicts = distributed events in
  let checked = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i c ->
      if List.mem c.node guarded then begin
        incr checked;
        if dist_verdicts.(i) = c.blocked then begin
          incr mismatches;
          Format.printf "  MISMATCH t=%.6f %s %s %a: live blocked=%b@." c.time
            c.node
            (if c.tx then "tx" else "rx")
            Can.Identifier.pp c.frame.Can.Frame.id c.blocked
        end
      end)
    events;
  Printf.printf
    "self-check: replay vs live car, %d mismatches over %d guarded crossings\n"
    !mismatches !checked;
  if !mismatches > 0 then begin
    Printf.eprintf "topology: the HPE replay diverges from the live car\n";
    exit 4
  end;
  let grants verdicts =
    Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 verdicts
  in
  let dist_grants = grants dist_verdicts in
  let central_grants = grants (central central_events) in
  let per_event ~count median_s =
    if count = 0 then Float.nan else median_s /. float_of_int count *. 1e9
  in
  let dist_med, _ =
    Protocol.measure ~warmup ~repeats (fun () -> ignore (distributed events))
  in
  let central_med, _ =
    Protocol.measure ~warmup ~repeats (fun () ->
        ignore (central central_events))
  in
  let dist_ns = per_event ~count:(Array.length events) dist_med in
  let central_ns = per_event ~count:(Array.length central_events) central_med in
  let central_fraction =
    if Array.length events = 0 then 0.0
    else float_of_int (Array.length central_events)
         /. float_of_int (Array.length events)
  in
  Printf.printf "%-50s %14s %10s %8s\n" "placement" "ns/event" "events"
    "grants";
  Printf.printf "%-50s %14.1f %10d %8d\n" "distributed (one HPE per ECU)"
    dist_ns (Array.length events) dist_grants;
  Printf.printf "%-50s %14.1f %10d %8d\n" "central (one HPE per gateway)"
    central_ns
    (Array.length central_events)
    central_grants;
  Printf.printf "central evaluates %.3f of the distributed workload\n"
    central_fraction;
  (* blast containment per (plan x placement): the distributed-enforcement
     claim the trajectory gate tracks.  Deterministic for a fixed seed. *)
  subsection "Blast containment (plan x placement)";
  let horizon = if !quick_mode then 1.5 else 2.5 in
  let plans =
    [
      Faults.Plan.segment_partition ~horizon;
      Faults.Plan.segment_babble ~horizon;
    ]
  in
  let placements = [ `Central; `Distributed ] in
  let runs =
    List.concat_map
      (fun plan ->
        List.map
          (fun placement ->
            let o = Faults.Chaos.run ~placement ~seed:42L ~plan () in
            let faulted = Faults.Harness.faulted o.Faults.Chaos.harness in
            Printf.printf "  %-20s %-12s %s (blast: %s)\n"
              plan.Faults.Plan.name
              (Tcar.placement_name placement)
              (if o.Faults.Chaos.passed then "contained" else "LEAKED")
              (String.concat ", " faulted);
            (plan.Faults.Plan.name, placement, o.Faults.Chaos.passed, faulted))
          placements)
      plans
  in
  let containment =
    let n = List.length runs in
    if n = 0 then 0.0
    else
      float_of_int (List.length (List.filter (fun (_, _, p, _) -> p) runs))
      /. float_of_int n
  in
  Printf.printf "containment: %.2f of %d (plan x placement) runs\n" containment
    (List.length runs);
  topology_report :=
    Some
      (Policy.Json.Obj
         [
           ("schema", Policy.Json.Int 1);
           ("suite", Policy.Json.String "secpol-topology");
           ("quick", Policy.Json.Bool !quick_mode);
           ("meta", Protocol.meta ());
           ( "workload",
             Policy.Json.Obj
               [
                 ("seconds", Policy.Json.Float seconds);
                 ("events", Policy.Json.Int (Array.length events));
                 ( "central_events",
                   Policy.Json.Int (Array.length central_events) );
                 ("segments", Policy.Json.List segment_rows);
               ] );
           ( "latency",
             Policy.Json.Obj
               [
                 ("distributed_ns_per_event", json_float dist_ns);
                 ("central_ns_per_event", json_float central_ns);
               ] );
           ( "checks",
             Policy.Json.Obj
               [ ("central_fraction", json_float central_fraction) ] );
           ( "blast",
             Policy.Json.Obj
               [
                 ("containment", json_float containment);
                 ("horizon", Policy.Json.Float horizon);
                 ( "runs",
                   Policy.Json.List
                     (List.map
                        (fun (plan, placement, passed, faulted) ->
                          Policy.Json.Obj
                            [
                              ("plan", Policy.Json.String plan);
                              ( "placement",
                                Policy.Json.String
                                  (Tcar.placement_name placement) );
                              ("passed", Policy.Json.Bool passed);
                              ( "faulted_segments",
                                Policy.Json.List
                                  (List.map
                                     (fun s -> Policy.Json.String s)
                                     faulted) );
                            ])
                        runs) );
               ] );
         ])

let targets =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("q1", q1);
    ("q2", q2);
    ("q3", q3);
    ("q4", q4);
    ("perf", perf);
    ("parscale", parscale);
    ("topology", topology_bench);
    ("serve", serve_bench);
    ("campaign", fleet_campaign);
    ("ablation", ablation);
    ("extension", extension);
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(*                                                                     *)
(*   main.exe [TARGET...] [--quick] [--json FILE]                      *)
(*            [--parallel-json FILE] [--check-speedup X]               *)
(*                                                                     *)
(* Exit codes: 0 ok; 1 unknown target / bad flag; 4 a gate failed:     *)
(* compiled-vs-interpreted speedup below --check-speedup, batched-vs-  *)
(* compiled speedup below --check-batched-speedup, a parscale run      *)
(* whose decisions diverge from the in-order engine, or a ratio in a   *)
(* --baseline / --parallel-baseline artifact regressed beyond the      *)
(* --tolerance band (the CI trajectory gates).                         *)
(* ------------------------------------------------------------------ *)

let find_row suffix =
  List.find_opt
    (fun r ->
      let n = String.length r.bench and m = String.length suffix in
      n >= m && String.sub r.bench (n - m) m = suffix)
    !perf_rows

let speedup_rows () =
  match
    ( find_row "policy/engine/interpreted (car workload)",
      find_row "policy/engine/compiled (car workload)" )
  with
  | Some i, Some c when c.ns_per_op > 0.0 && Float.is_finite i.ns_per_op ->
      Some (i, c, i.ns_per_op /. c.ns_per_op)
  | _ -> None

let json_report () =
  let results =
    List.map
      (fun r ->
        Policy.Json.Obj
          [
            ("name", Policy.Json.String r.bench);
            ("ns_per_op", json_float r.ns_per_op);
            ("minor_words_per_op", json_float r.minor_per_op);
          ])
      !perf_rows
  in
  let speedup =
    match speedup_rows () with
    | None -> Policy.Json.Null
    | Some (i, c, s) ->
        Policy.Json.Obj
          [
            ("baseline", Policy.Json.String i.bench);
            ("fast_path", Policy.Json.String c.bench);
            ("speedup", json_float s);
          ]
  in
  let batched =
    match !batched_vs_compiled with
    | None -> Policy.Json.Null
    | Some (scalar_ns, batched_ns, s) ->
        Policy.Json.Obj
          [
            ( "baseline",
              Policy.Json.String "policy/engine/compiled-loop (car workload)"
            );
            ( "fast_path",
              Policy.Json.String "policy/engine/decide_batch (car workload)"
            );
            ("baseline_ns_per_op", json_float scalar_ns);
            ("fast_path_ns_per_op", json_float batched_ns);
            ("speedup", json_float s);
          ]
  in
  Policy.Json.Obj
    [
      ("schema", Policy.Json.Int 2);
      ("suite", Policy.Json.String "secpol-perf");
      ("quick", Policy.Json.Bool !quick_mode);
      ("meta", Protocol.meta ());
      ("results", Policy.Json.List results);
      ("compiled_vs_interpreted", speedup);
      ("batched_vs_compiled", batched);
      ("telemetry", Option.value ~default:Policy.Json.Null !telemetry);
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    Printf.eprintf
      "usage: main.exe [TARGET...] [--quick] [--json FILE] [--parallel-json \
       FILE] [--serve-json FILE] [--campaign-json FILE] [--topology-json \
       FILE] [--check-speedup X]\n\
      \                [--check-batched-speedup X] [--baseline FILE] \
       [--parallel-baseline FILE] [--topology-baseline FILE] [--tolerance \
       PCT]\nknown targets: %s\n"
      (String.concat ", " (List.map fst targets));
    exit 1
  in
  let rec parse names = function
    | [] -> List.rev names
    | "--quick" :: rest ->
        quick_mode := true;
        parse names rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse names rest
    | "--parallel-json" :: file :: rest ->
        parallel_json_file := Some file;
        parse names rest
    | "--topology-json" :: file :: rest ->
        topology_json_file := Some file;
        parse names rest
    | "--topology-baseline" :: file :: rest ->
        topology_baseline_file := Some file;
        parse names rest
    | "--serve-json" :: file :: rest ->
        serve_json_file := Some file;
        parse names rest
    | "--campaign-json" :: file :: rest ->
        campaign_json_file := Some file;
        parse names rest
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        parse names rest
    | "--parallel-baseline" :: file :: rest ->
        parallel_baseline_file := Some file;
        parse names rest
    | "--tolerance" :: x :: rest -> (
        match float_of_string_opt x with
        | Some v when v >= 0.0 ->
            tolerance := v /. 100.0;
            parse names rest
        | Some _ | None -> usage ())
    | "--check-speedup" :: x :: rest -> (
        match float_of_string_opt x with
        | Some v ->
            check_speedup := Some v;
            parse names rest
        | None -> usage ())
    | "--check-batched-speedup" :: x :: rest -> (
        match float_of_string_opt x with
        | Some v ->
            check_batched := Some v;
            parse names rest
        | None -> usage ())
    | ( "--json" | "--parallel-json" | "--serve-json" | "--campaign-json"
      | "--topology-json" | "--topology-baseline" | "--check-speedup"
      | "--check-batched-speedup" | "--baseline" | "--parallel-baseline"
      | "--tolerance" )
      :: [] ->
        usage ()
    | name :: rest ->
        if String.length name >= 2 && String.sub name 0 2 = "--" then usage ();
        parse (name :: names) rest
  in
  let requested =
    match parse [] args with [] -> List.map fst targets | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown bench target %S; known: %s\n" name
            (String.concat ", " (List.map fst targets));
          exit 1)
    requested;
  (match !json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Policy.Json.to_string (json_report ()));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (%d benchmark results)\n" file
        (List.length !perf_rows));
  (match !parallel_json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Policy.Json.to_string (par_report ()));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (%d parallel scaling runs)\n" file
        (List.length !par_rows));
  (match !serve_json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Policy.Json.to_string (serve_report ()));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (%d serving ladder runs)\n" file
        (List.length !serve_rows));
  (match !campaign_json_file with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Policy.Json.to_string (campaign_report ()));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (campaign artifact)\n" file);
  (match (!topology_json_file, !topology_report) with
  | Some file, Some report ->
      let oc = open_out file in
      output_string oc (Policy.Json.to_string report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (topology artifact)\n" file
  | Some _, None ->
      Printf.eprintf
        "--topology-json: no topology results recorded (run the topology \
         target)\n"
  | None, _ -> ());
  (match !check_speedup with
  | None -> ()
  | Some threshold -> (
      match speedup_rows () with
      | None ->
          Printf.eprintf
            "--check-speedup: no engine benchmarks recorded (run the perf \
             target)\n";
          exit 4
      | Some (i, c, s) ->
          Printf.printf
            "speedup gate: interpreted %.1f ns/op -> compiled %.1f ns/op = \
             %.2fx (threshold %.2fx)\n"
            i.ns_per_op c.ns_per_op s threshold;
          if s < threshold then exit 4));
  (match !check_batched with
  | None -> ()
  | Some threshold -> (
      match !batched_vs_compiled with
      | None ->
          Printf.eprintf
            "--check-batched-speedup: no batched benchmark recorded (run the \
             perf target)\n";
          exit 4
      | Some (scalar_ns, batched_ns, s) ->
          Printf.printf
            "batched gate: per-request compiled %.1f ns/op -> decide_batch \
             %.1f ns/op = %.2fx (threshold %.2fx)\n"
            scalar_ns batched_ns s threshold;
          if s < threshold then exit 4));
  (* trajectory gate: ratio metrics of this run vs committed baseline
     artifacts; exits 4 on regression beyond the tolerance band *)
  let trajectory_failed = ref false in
  let run_checks ~what ~fresh ~file checks =
    match file with
    | None -> ()
    | Some file -> (
        match Protocol.load_json file with
        | Error e ->
            Printf.eprintf "trajectory: cannot read %s baseline %s: %s\n" what
              file e;
            trajectory_failed := true
        | Ok baseline ->
            let named =
              List.map
                (fun (name, path) ->
                  ( name,
                    Protocol.check_ratio ~tolerance:!tolerance ~name ~fresh
                      ~baseline path ))
                checks
            in
            if not (Protocol.report_checks named) then
              trajectory_failed := true)
  in
  run_checks ~what:"perf" ~fresh:(json_report ()) ~file:!baseline_file
    [
      ( "batched_vs_compiled.speedup",
        [ "batched_vs_compiled"; "speedup" ] );
    ];
  run_checks ~what:"parscale" ~fresh:(par_report ())
    ~file:!parallel_baseline_file
    [ ("batched_scaling", [ "batched_scaling" ]) ];
  run_checks ~what:"topology"
    ~fresh:(Option.value ~default:Policy.Json.Null !topology_report)
    ~file:!topology_baseline_file
    [
      ("checks.central_fraction", [ "checks"; "central_fraction" ]);
      ("blast.containment", [ "blast"; "containment" ]);
    ];
  if !trajectory_failed then exit 4
