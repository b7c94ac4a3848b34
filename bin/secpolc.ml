(* secpolc: the policy compiler / toolchain CLI.

   Subcommands:
     lint    parse + compile + full static analysis (text or JSON report)
     check   thin alias for lint: text output, fail on errors
     fmt     pretty-print the normal form
     eval    evaluate one access request against a policy
     verify  semantic verification: symbolic decision-space analysis
     diff    semantic + rule-level difference between two policy files
     bundle  seal a policy file into an update bundle (prints the checksum)
*)

module Policy = Secpol.Policy
module Vehicle = Secpol.Vehicle
module Lint = Policy.Lint
module Diagnostic = Policy.Diagnostic
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Policy.Parser.parse (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let policy_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY" ~doc:"Policy source file.")

let strategy_conv =
  Arg.enum
    [
      ("deny-overrides", Policy.Engine.Deny_overrides);
      ("allow-overrides", Policy.Engine.Allow_overrides);
      ("first-match", Policy.Engine.First_match);
    ]

let strategy_arg =
  Arg.(value & opt strategy_conv Policy.Engine.Deny_overrides
       & info [ "strategy" ] ~docv:"S"
           ~doc:"Resolution strategy: $(b,deny-overrides), \
                 $(b,allow-overrides) or $(b,first-match).")

(* ---------- lint ---------- *)

(* Exit codes: 0 clean (or findings below --fail-on), 1 findings at or above
   the threshold, 3 unreadable / unparsable / uncompilable policy.  Cmdliner
   reserves 124/125 for command-line errors. *)

let comma_list =
  Arg.list ~sep:',' Arg.string

let format_arg =
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")

let fail_on_arg =
  Arg.(value
       & opt (enum [ ("error", `Error); ("warning", `Warning); ("never", `Never) ]) `Error
       & info [ "fail-on" ] ~docv:"SEV"
           ~doc:"Exit non-zero when findings of this severity (or worse) \
                 exist: $(b,error), $(b,warning) or $(b,never).")

let modes_arg =
  Arg.(value & opt (some comma_list) None
       & info [ "modes" ] ~docv:"M1,M2"
           ~doc:"Declared mode universe; defaults to the modes the policy \
                 names.")

let subjects_arg =
  Arg.(value & opt (some comma_list) None
       & info [ "subjects" ] ~docv:"S1,S2" ~doc:"Subject universe.")

let assets_arg =
  Arg.(value & opt (some comma_list) None
       & info [ "assets" ] ~docv:"A1,A2" ~doc:"Asset universe.")

let lint_config ~strategy ~modes ~subjects ~assets ~vehicle =
  let default l = function Some v -> Some v | None -> l in
  if vehicle then
    {
      Lint.strategy;
      modes = default (Some (List.map Vehicle.Modes.name Vehicle.Modes.all)) modes;
      subjects = default (Some Vehicle.Names.assets) subjects;
      assets = default (Some Vehicle.Names.assets) assets;
    }
  else { Lint.strategy; modes; subjects; assets }

let run_lint file ~strategy ~modes ~subjects ~assets ~vehicle =
  match load file with
  | Error e -> Error e
  | Ok ast -> (
      match Policy.Compile.compile ast with
      | Error issues ->
          Error
            (String.concat "\n"
               (List.map
                  (fun i -> Format.asprintf "%a" Policy.Compile.pp_issue i)
                  issues))
      | Ok (db, _warnings) ->
          let config = lint_config ~strategy ~modes ~subjects ~assets ~vehicle in
          let passes =
            if vehicle then Lint.builtin @ Vehicle.Lint_passes.passes ()
            else Lint.builtin
          in
          Ok (db, Lint.run ~passes config db))

let exit_for ~fail_on diagnostics =
  let errors = Diagnostic.count Diagnostic.Error diagnostics in
  let warnings = Diagnostic.count Diagnostic.Warning diagnostics in
  match fail_on with
  | `Never -> 0
  | `Error -> if errors > 0 then 1 else 0
  | `Warning -> if errors > 0 || warnings > 0 then 1 else 0

let explain code =
  match Diagnostic.code_of_id code with
  | None ->
      Printf.eprintf "unknown diagnostic code %S (SP001..SP%03d)\n" code
        (List.length Diagnostic.all_codes);
      3
  | Some c ->
      Printf.printf "%s (%s), default severity %s\n\n%s\n" (Diagnostic.id c)
        (Diagnostic.slug c)
        (Diagnostic.severity_name (Diagnostic.default_severity c))
        (Diagnostic.explain c);
      0

let lint_cmd =
  let run file format strategy fail_on modes subjects assets vehicle explain_code =
    match (explain_code, file) with
    | Some code, _ -> explain code
    | None, None ->
        prerr_endline "secpolc lint: a POLICY file is required unless --explain is given";
        3
    | None, Some file -> (
        match run_lint file ~strategy ~modes ~subjects ~assets ~vehicle with
        | Error e ->
            prerr_endline e;
            3
        | Ok (db, diagnostics) ->
            (match format with
            | `Text -> Format.printf "%a" Lint.pp_report (db, diagnostics)
            | `Json ->
                print_endline
                  (Policy.Json.to_string (Lint.report_to_json db diagnostics)));
            exit_for ~fail_on diagnostics)
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"POLICY" ~doc:"Policy source file.")
  in
  let vehicle =
    Arg.(value & flag
         & info [ "vehicle" ]
             ~doc:"Lint against the built-in connected-car deployment: the \
                   car's mode/subject/asset universes plus the cross-layer \
                   HPE-consistency and threat-traceability passes.")
  in
  let explain_code =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"CODE"
             ~doc:"Print the long-form description of a diagnostic code \
                   (e.g. $(b,SP003) or $(b,coverage-gap)) and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run all static-analysis passes over a policy."
       ~man:
         [
           `S Manpage.s_description;
           `P "Parses and compiles $(i,POLICY), runs the lint passes \
               (conflicts SP001, shadowing SP002, coverage gaps SP003, \
               unreachable rules SP004, unknown modes SP005, rate sanity \
               SP006/SP007, and with $(b,--vehicle) also HPE consistency \
               SP008 and threat traceability SP009) and reports the \
               findings.  $(b,--explain) documents any SP001..SP014 code, \
               including the semantic-verifier codes emitted by \
               $(b,secpolc verify) and $(b,secpolc diff).";
           `S Manpage.s_exit_status;
           `P "0 on a clean policy (or findings below $(b,--fail-on)); 1 \
               when findings at or above the threshold exist; 3 when the \
               policy cannot be read, parsed or compiled.";
         ])
    Term.(const run $ file $ format_arg $ strategy_arg $ fail_on_arg
          $ modes_arg $ subjects_arg $ assets_arg $ vehicle $ explain_code)

(* ---------- check ---------- *)

let check_cmd =
  let run first_match file =
    let strategy =
      if first_match then Policy.Engine.First_match
      else Policy.Engine.Deny_overrides
    in
    match
      run_lint file ~strategy ~modes:None ~subjects:None ~assets:None
        ~vehicle:false
    with
    | Error e ->
        prerr_endline e;
        1
    | Ok (db, diagnostics) ->
        Format.printf "%a" Lint.pp_report (db, diagnostics);
        if Diagnostic.count Diagnostic.Error diagnostics > 0 then 2 else 0
  in
  let first_match =
    Arg.(value & flag
         & info [ "first-match" ]
             ~doc:"Analyse reachability assuming first-match resolution.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse, compile and statically analyse a policy (alias for \
             lint with text output; exit 2 on errors)." )
    Term.(const run $ first_match $ policy_file)

(* ---------- fmt ---------- *)

let fmt_cmd =
  let run file =
    match load file with
    | Error e ->
        prerr_endline e;
        1
    | Ok ast ->
        print_string (Policy.Printer.to_string ast);
        0
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Print the canonical form of a policy.")
    Term.(const run $ policy_file)

(* ---------- eval ---------- *)

let eval_cmd =
  let run file mode subject asset op msg_id strategy =
    match load file with
    | Error e ->
        prerr_endline e;
        1
    | Ok ast -> (
        match Policy.Compile.compile ast with
        | Error issues ->
            List.iter (fun i -> Format.eprintf "%a@." Policy.Compile.pp_issue i) issues;
            1
        | Ok (db, _) ->
            let engine = Policy.Engine.create ~strategy db in
            let request = { Policy.Ir.mode; subject; asset; op; msg_id } in
            let outcome = Policy.Engine.decide engine request in
            Format.printf "%a -> %a@." Policy.Ir.pp_request request
              Policy.Engine.pp_outcome outcome;
            (match outcome.Policy.Engine.decision with
            | Policy.Ast.Allow -> 0
            | Policy.Ast.Deny -> 3))
  in
  let mode =
    Arg.(value & opt string "" & info [ "mode" ] ~docv:"MODE" ~doc:"Operating mode.")
  in
  let subject =
    Arg.(required & opt (some string) None & info [ "subject" ] ~docv:"SUBJECT" ~doc:"Requesting subject.")
  in
  let asset =
    Arg.(required & opt (some string) None & info [ "asset" ] ~docv:"ASSET" ~doc:"Target asset.")
  in
  let op_conv =
    Arg.enum [ ("read", Policy.Ir.Read); ("write", Policy.Ir.Write) ]
  in
  let op =
    Arg.(value & opt op_conv Policy.Ir.Read
         & info [ "op" ] ~docv:"OP" ~doc:"$(b,read) or $(b,write).")
  in
  let msg =
    Arg.(value & opt (some int) None & info [ "msg" ] ~docv:"ID" ~doc:"CAN message id.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate one access request. Exit 0 allow / 3 deny.")
    Term.(const run $ policy_file $ mode $ subject $ asset $ op $ msg $ strategy_arg)

(* ---------- verify ---------- *)

let load_db path =
  match load path with
  | Error e -> Error e
  | Ok ast -> (
      match Policy.Compile.compile ast with
      | Error issues ->
          Error
            (String.concat "\n"
               (List.map
                  (fun i -> Format.asprintf "%a" Policy.Compile.pp_issue i)
                  issues))
      | Ok (db, _warnings) -> Ok (ast, db))

let verify_cmd =
  let run file format strategy fail_on modes subjects assets vehicle =
    match load_db file with
    | Error e ->
        prerr_endline e;
        3
    | Ok (_ast, db) ->
        let cfg = lint_config ~strategy ~modes ~subjects ~assets ~vehicle in
        let obligations =
          if vehicle then Vehicle.Threat_catalog.obligations () else []
        in
        let report =
          Policy.Verify.analyse ~strategy:cfg.Lint.strategy
            ?modes:cfg.Lint.modes ?subjects:cfg.Lint.subjects
            ?assets:cfg.Lint.assets ~obligations db
        in
        (match format with
        | `Text -> Format.printf "%a" Policy.Verify.pp_report report
        | `Json ->
            print_endline
              (Policy.Json.to_string (Policy.Verify.report_to_json report)));
        exit_for ~fail_on report.Policy.Verify.diagnostics
  in
  let vehicle =
    Arg.(value & flag
         & info [ "vehicle" ]
             ~doc:"Verify against the built-in connected-car deployment: \
                   the car's mode/subject/asset universes plus the denial \
                   obligations derived from the Table-I threat catalogue \
                   (SP013).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Semantically verify a policy by symbolic decision-space \
             analysis."
       ~man:
         [
           `S Manpage.s_description;
           `P "Computes every access cell's exact decision partition over \
               the message-id space, measures default-decision \
               completeness, proves that the interpreted engine, the \
               compiled table and the symbolic partition agree on every \
               region boundary in every reachable rate-budget state \
               (SP014 on divergence), and reports dead rules (SP011), \
               mergeable modes (SP010) and, with $(b,--vehicle), \
               unmitigated threat obligations (SP013).";
           `S Manpage.s_exit_status;
           `P "0 when verification passes (or findings stay below \
               $(b,--fail-on)); 1 when findings at or above the threshold \
               exist; 3 when the policy cannot be read, parsed or \
               compiled.";
         ])
    Term.(const run $ policy_file $ format_arg $ strategy_arg $ fail_on_arg
          $ modes_arg $ subjects_arg $ assets_arg $ vehicle)

(* ---------- bench ---------- *)

(* Exit codes: 0 measured (and above --min-speedup / --check-scaling when
   given); 1 the compiled fast path fell below --min-speedup or parallel
   scaling fell below --check-scaling; 3 unreadable / unparsable /
   uncompilable policy.  Coarse CPU-clock timing on purpose: this is the
   CI-friendly smoke check, bench/main.exe perf is the precise harness. *)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* Shard-per-domain scaling on the same synthesised workload: one
   Serve.run per requested domain count, timestamps strictly increasing so
   rate-limited rules behave identically across runs. *)
let bench_parallel ~strategy ~iters ~domains db workload =
  let n = Array.length workload in
  let work =
    Array.init iters (fun k -> (float_of_int k *. 1e-3, workload.(k mod n)))
  in
  List.map
    (fun d ->
      let r = Secpol.Par.Serve.run ~domains:d ~strategy db work in
      (d, r.Secpol.Par.Serve.stats))
    domains

let parallel_json ~name ~version ~iters runs scaling =
  Policy.Json.Obj
    [
      ("policy", Policy.Json.String name);
      ("version", Policy.Json.Int version);
      ("iterations", Policy.Json.Int iters);
      ("partition_key", Policy.Json.String "subject");
      ( "runs",
        Policy.Json.List
          (List.map
             (fun (d, (s : Secpol.Par.Serve.stats)) ->
               Policy.Json.Obj
                 [
                   ("domains", Policy.Json.Int d);
                   ("served", Policy.Json.Int s.served);
                   ("elapsed_s", Policy.Json.Float s.elapsed_s);
                   ("throughput_per_s", Policy.Json.Float s.throughput);
                   ( "per_shard",
                     Policy.Json.List
                       (Array.to_list
                          (Array.map
                             (fun c -> Policy.Json.Int c)
                             s.per_shard)) );
                 ])
             runs) );
      ("scaling", Policy.Json.Float scaling);
    ]

let bench_cmd =
  let json_num = function
    | Policy.Json.Float f -> Some f
    | Policy.Json.Int i -> Some (float_of_int i)
    | _ -> None
  in
  let run file strategy iters min_speedup json domains check_scaling
      parallel_out batch baseline tolerance =
    match load file with
    | Error e ->
        prerr_endline e;
        3
    | Ok ast -> (
        match Policy.Compile.compile ast with
        | Error issues ->
            List.iter
              (fun i -> Format.eprintf "%a@." Policy.Compile.pp_issue i)
              issues;
            3
        | Ok (db, _) ->
            (* synthesise a request mix covering every asset and subject the
               policy names, plus a stranger falling to the default *)
            let modes =
              "normal"
              :: List.concat_map
                   (fun (r : Policy.Ir.rule) ->
                     Option.value ~default:[] r.Policy.Ir.modes)
                   db.Policy.Ir.rules
              |> List.sort_uniq String.compare
            in
            let subjects = "stranger" :: Policy.Ir.subjects db in
            let workload =
              List.concat_map
                (fun asset ->
                  List.concat_map
                    (fun subject ->
                      List.concat_map
                        (fun mode ->
                          List.concat_map
                            (fun op ->
                              [
                                { Policy.Ir.mode; subject; asset; op; msg_id = None };
                                {
                                  Policy.Ir.mode;
                                  subject;
                                  asset;
                                  op;
                                  msg_id = Some 0x100;
                                };
                              ])
                            [ Policy.Ir.Read; Policy.Ir.Write ])
                        modes)
                    subjects)
                (Policy.Ir.assets db)
              |> Array.of_list
            in
            if Array.length workload = 0 then begin
              prerr_endline "policy has no rules to benchmark";
              3
            end
            else begin
              let n = Array.length workload in
              let time decide =
                (* warm up allocators and the table *)
                for k = 0 to min n 1000 - 1 do
                  ignore (decide workload.(k mod n))
                done;
                (* wall time from the shared monotonic helper, not
                   [Sys.time]: CPU seconds under-count when the process is
                   descheduled and drift from what bench/ and the parallel
                   layer report, so all timing now goes through one clock *)
                let t0 = Secpol.Obs.Clock.now () in
                for k = 0 to iters - 1 do
                  ignore (decide workload.(k mod n))
                done;
                (Secpol.Obs.Clock.now () -. t0) /. float_of_int iters *. 1e9
              in
              (* a fresh decider for each pass, so no pass inherits
                 another's rate budgets *)
              let reference () =
                Policy.Reference.decide (Policy.Reference.create ~strategy db)
              in
              let engine () =
                Policy.Engine.decide (Policy.Engine.create ~strategy db)
              in
              let interpreted = time (reference ()) in
              let compiled = time (engine ()) in
              let batched =
                if not batch then None
                else begin
                  let engine = Policy.Engine.create ~strategy db in
                  let b = Policy.Batch.create ~capacity:n () in
                  Array.iter (fun req -> Policy.Batch.push b req) workload;
                  let out = Array.make n Policy.Ast.Deny in
                  let rounds = max 1 (iters / n) in
                  (* same warmup discipline as the per-request loops *)
                  Policy.Engine.decide_batch engine b ~out;
                  let t0 = Secpol.Obs.Clock.now () in
                  for _ = 1 to rounds do
                    Policy.Engine.decide_batch engine b ~out
                  done;
                  Some
                    ((Secpol.Obs.Clock.now () -. t0)
                    /. float_of_int (rounds * n)
                    *. 1e9)
                end
              in
              let batched_speedup =
                match batched with
                | Some b when b > 0.0 -> Some (compiled /. b)
                | _ -> None
              in
              (* separate instrumented pass: the timing loops above stay
                 free of per-decision clock reads.  Both histograms share
                 the engine's latency layout. *)
              let histogram decide =
                let h =
                  Secpol.Obs.Histogram.create ~lo:50.0 ~ratio:2.0 ~buckets:32
                    ()
                in
                for k = 0 to min iters 10_000 - 1 do
                  let t0 = Secpol.Obs.Clock.now () in
                  ignore (decide workload.(k mod n));
                  Secpol.Obs.Histogram.observe h
                    (Secpol.Obs.Clock.elapsed_ns ~since:t0)
                done;
                h
              in
              let h_interpreted = histogram (reference ()) in
              let h_compiled = histogram (engine ()) in
              let speedup =
                if compiled > 0.0 then interpreted /. compiled else 0.0
              in
              (match json with
              | false ->
                  Printf.printf
                    "policy %s v%d: %d rules, %d-request workload, %d \
                     iterations\ninterpreted: %8.1f ns/op\ncompiled:    \
                     %8.1f ns/op\nspeedup:     %8.2fx\n"
                    db.Policy.Ir.name db.Policy.Ir.version
                    (List.length db.Policy.Ir.rules)
                    (Array.length workload) iters interpreted compiled speedup;
                  (match (batched, batched_speedup) with
                  | Some b, Some s ->
                      Printf.printf
                        "batched:     %8.1f ns/op\nbatched speedup: %.2fx \
                         over per-request compiled\n"
                        b s
                  | _ -> ());
                  Format.printf "interpreted latency: %a@.compiled latency:    %a@."
                    Secpol.Obs.Histogram.pp_summary h_interpreted
                    Secpol.Obs.Histogram.pp_summary h_compiled
              | true ->
                  print_endline
                    (Policy.Json.to_string
                       (Policy.Json.Obj
                          ([
                            ("policy", Policy.Json.String db.Policy.Ir.name);
                            ("version", Policy.Json.Int db.Policy.Ir.version);
                            ("rules", Policy.Json.Int (List.length db.Policy.Ir.rules));
                            ("iterations", Policy.Json.Int iters);
                            ("interpreted_ns_per_op", Policy.Json.Float interpreted);
                            ("compiled_ns_per_op", Policy.Json.Float compiled);
                            ("speedup", Policy.Json.Float speedup);
                          ]
                          @ (match (batched, batched_speedup) with
                            | Some b, Some s ->
                                [
                                  ( "batched_ns_per_op",
                                    Policy.Json.Float b );
                                  ("batched_speedup", Policy.Json.Float s);
                                ]
                            | _ -> [])
                          @ [
                            ( "interpreted_latency_ns",
                              Policy.Obs_json.histogram h_interpreted );
                            ( "compiled_latency_ns",
                              Policy.Obs_json.histogram h_compiled );
                          ]))));
              let speedup_rc =
                match min_speedup with
                | Some m when speedup < m ->
                    Printf.eprintf
                      "speedup %.2fx below required minimum %.2fx\n" speedup m;
                    1
                | Some _ | None -> 0
              in
              let parallel_rc =
                match domains with
                | [] -> 0
                | domains ->
                    let runs =
                      bench_parallel ~strategy ~iters ~domains db workload
                      |> List.sort (fun (a, _) (b, _) -> compare a b)
                    in
                    let base_d, (base : Secpol.Par.Serve.stats) =
                      List.hd runs
                    in
                    let top_d, (top : Secpol.Par.Serve.stats) =
                      List.hd (List.rev runs)
                    in
                    let scaling =
                      if base.throughput > 0.0 then
                        top.throughput /. base.throughput
                      else 0.0
                    in
                    if not json then begin
                      List.iter
                        (fun (d, (s : Secpol.Par.Serve.stats)) ->
                          Printf.printf
                            "parallel %d domain(s): %10.0f decisions/s\n" d
                            s.throughput)
                        runs;
                      Printf.printf
                        "scaling %d -> %d domains: %.2fx throughput\n" base_d
                        top_d scaling
                    end;
                    (match parallel_out with
                    | Some path ->
                        write_file path
                          (Policy.Json.to_string
                             (parallel_json ~name:db.Policy.Ir.name
                                ~version:db.Policy.Ir.version ~iters runs
                                scaling)
                          ^ "\n")
                    | None -> ());
                    (match check_scaling with
                    | Some m when scaling < m ->
                        Printf.eprintf
                          "parallel scaling %.2fx below required minimum \
                           %.2fx\n"
                          scaling m;
                        1
                    | Some _ | None -> 0)
              in
              let baseline_rc =
                match baseline with
                | None -> 0
                | Some path -> (
                    match Policy.Json.of_string (read_file path) with
                    | Error e ->
                        Printf.eprintf "%s: %s\n" path e;
                        3
                    | Ok base ->
                        (* speedups are ratios, so they transfer across
                           machines in a way absolute ns/op numbers do not;
                           only a drop below the tolerance band fails —
                           getting faster never does *)
                        let floor_of b = b *. (1.0 -. (tolerance /. 100.0)) in
                        let check name fresh =
                          match
                            Option.bind (Policy.Json.member name base) json_num
                          with
                          | None -> 0
                          | Some b when fresh >= floor_of b ->
                              Printf.eprintf
                                "baseline %s: %.2f vs %.2f (floor %.2f) ok\n"
                                name fresh b (floor_of b);
                              0
                          | Some b ->
                              Printf.eprintf
                                "baseline %s REGRESSED: %.2f below floor \
                                 %.2f (baseline %.2f, tolerance %.0f%%)\n"
                                name fresh (floor_of b) b tolerance;
                              4
                        in
                        let rc = check "speedup" speedup in
                        let rc' =
                          match batched_speedup with
                          | Some s -> check "batched_speedup" s
                          | None -> 0
                        in
                        max rc rc')
              in
              if speedup_rc <> 0 then speedup_rc
              else if parallel_rc <> 0 then parallel_rc
              else baseline_rc
            end)
  in
  let iters =
    Arg.(value & opt int 100_000
         & info [ "iters" ] ~docv:"N" ~doc:"Decision iterations per engine.")
  in
  let min_speedup =
    Arg.(value & opt (some float) None
         & info [ "min-speedup" ] ~docv:"X"
             ~doc:"Exit 1 when the compiled engine's speedup over the \
                   interpreted engine is below $(docv).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the measurements as a JSON object.")
  in
  let domains =
    Arg.(value & opt (list int) []
         & info [ "domains" ] ~docv:"N1,N2"
             ~doc:"Also serve the workload through the shard-per-domain \
                   parallel layer at each given domain count and report \
                   throughput.")
  in
  let check_scaling =
    Arg.(value & opt (some float) None
         & info [ "check-scaling" ] ~docv:"X"
             ~doc:"Exit 1 when the highest $(b,--domains) count's \
                   throughput over the lowest count's is below $(docv).")
  in
  let parallel_out =
    Arg.(value & opt (some string) None
         & info [ "parallel-out" ] ~docv:"FILE"
             ~doc:"Write the $(b,--domains) scaling measurements as JSON \
                   to $(docv).")
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:"Also time the zero-allocation batched decision path \
                   ($(b,decide_batch) over a struct-of-arrays buffer) and \
                   report its ns/op and speedup over the per-request \
                   compiled engine.")
  in
  let baseline =
    Arg.(value & opt (some file) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Compare this run's speedup ratios against a previous \
                   $(b,--json) report saved in $(docv); exit 4 when one \
                   regresses more than $(b,--tolerance) below it.")
  in
  let tolerance =
    Arg.(value & opt float 10.0
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Allowed regression below the $(b,--baseline) ratios, in \
                   percent.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Micro-benchmark the interpreted vs compiled engine on a policy."
       ~man:
         [
           `S Manpage.s_description;
           `P "Compiles $(i,POLICY), synthesises a request workload covering \
               its assets, subjects and modes, and times the interpreted \
               rule scan against the compiled decision table.  With \
               $(b,--batch) the batched decision path is timed as well; \
               with $(b,--baseline) the measured speedup ratios are gated \
               against a previously saved $(b,--json) report.";
           `S Manpage.s_exit_status;
           `P "0 when measured (and at or above $(b,--min-speedup) when \
               given); 1 below the minimum or below $(b,--check-scaling); \
               3 when the policy or $(b,--baseline) file cannot be read, \
               parsed or compiled; 4 when a ratio regressed more than \
               $(b,--tolerance) below the $(b,--baseline).";
         ])
    Term.(
      const run $ policy_file $ strategy_arg $ iters $ min_speedup $ json
      $ domains $ check_scaling $ parallel_out $ batch $ baseline $ tolerance)

(* ---------- diff ---------- *)

let diff_cmd =
  let run old_file new_file strategy format json_out fail_on =
    match (load_db old_file, load_db new_file) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        3
    | Ok (old_p, old_db), Ok (new_p, new_db) ->
        let r = Policy.Verify.diff ~strategy old_db new_db in
        (match format with
        | `Text ->
            Format.printf "%a" Policy.Update.pp_diff
              (Policy.Update.diff old_p new_p);
            Format.printf "%a" Policy.Verify.pp_diff_report r;
            if r.Policy.Verify.deltas = [] then
              print_endline "policies are semantically identical"
        | `Json ->
            print_endline (Policy.Json.to_string (Policy.Verify.diff_to_json r)));
        (match json_out with
        | Some path ->
            write_file path
              (Policy.Json.to_string (Policy.Verify.diff_to_json r) ^ "\n")
        | None -> ());
        match (fail_on, (Policy.Verify.gate r).Policy.Verify.refusal) with
        | `Widened, Some why ->
            prerr_endline why;
            1
        | `Widened, None | `Never, _ -> 0
  in
  let old_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Old policy.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New policy.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Also write the semantic diff as JSON to $(docv).")
  in
  let fail_on =
    Arg.(value & opt (enum [ ("widened", `Widened); ("never", `Never) ]) `Never
         & info [ "fail-on" ] ~docv:"DIR"
             ~doc:"Exit 1 when the update gate refuses for this reason: \
                   $(b,widened) (the new version allows requests the old \
                   one denied, SP012; the first widened flow is printed on \
                   stderr) or $(b,never).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Semantic decision-space difference between two policy \
             versions."
       ~man:
         [
           `S Manpage.s_description;
           `P "Computes the exact per-cell decision-region changes between \
               $(i,OLD) and $(i,NEW) by symbolic analysis (see $(b,secpolc \
               verify)), classifying each delta as widened, tightened or \
               changed, alongside the rule-level add/remove summary.  A \
               widened delta means the update silently allows requests the \
               old version denied (SP012).";
           `S Manpage.s_exit_status;
           `P "0 when the update is acceptable under $(b,--fail-on); 1 \
               otherwise; 3 when either policy cannot be read, parsed or \
               compiled.";
         ])
    Term.(const run $ old_file $ new_file $ strategy_arg $ format_arg
          $ json_out $ fail_on)

(* ---------- bundle ---------- *)

let bundle_cmd =
  let run file key =
    match Policy.Update.bundle_of_source (read_file file) with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        1
    | Ok b ->
        let b =
          match key with None -> b | Some key -> Policy.Update.sign ~key b
        in
        Printf.printf "name:      %s\nversion:   %d\nchecksum:  %s\nsize:      %d bytes\n"
          b.Policy.Update.name b.Policy.Update.version b.Policy.Update.checksum
          (String.length b.Policy.Update.source);
        (match b.Policy.Update.signature with
        | Some s -> Printf.printf "signature: %s\n" s
        | None -> ());
        0
  in
  let key =
    Arg.(value & opt (some string) None
         & info [ "sign" ] ~docv:"KEY" ~doc:"Sign the bundle under the OEM key.")
  in
  Cmd.v
    (Cmd.info "bundle" ~doc:"Validate and seal a policy into an update bundle.")
    Term.(const run $ policy_file $ key)

let () =
  let info =
    Cmd.info "secpolc" ~version:"1.0.0"
      ~doc:"Policy compiler and toolchain for the Secpol policy DSL."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            lint_cmd; check_cmd; fmt_cmd; eval_cmd; verify_cmd; bench_cmd;
            diff_cmd; bundle_cmd;
          ]))
