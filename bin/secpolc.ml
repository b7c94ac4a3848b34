(* secpolc: the policy compiler / toolchain CLI.

   Subcommands:
     lint    parse + compile + full static analysis (text or JSON report)
     check   thin alias for lint: text output, fail on errors
     fmt     pretty-print the normal form
     eval    evaluate one access request against a policy
     verify  semantic verification: symbolic decision-space analysis
     diff    semantic difference between two policy files
     bundle  seal a policy file into an update bundle (prints the checksum)

   secpolc times nothing: bench/main.exe (perf, parscale) is the one
   benchmark driver.
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

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

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
      | Ok (db, _warnings) -> Ok db)

let verify_cmd =
  let run file format strategy fail_on modes subjects assets vehicle =
    match load_db file with
    | Error e ->
        prerr_endline e;
        3
    | Ok db ->
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

(* ---------- diff ---------- *)

let diff_cmd =
  let run old_file new_file strategy format json_out fail_on =
    match (load_db old_file, load_db new_file) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        3
    | Ok old_db, Ok new_db ->
        let r = Policy.Verify.diff ~strategy old_db new_db in
        (match format with
        | `Text ->
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
               changed.  A widened delta means the update silently allows \
               requests the old version denied (SP012).";
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
            lint_cmd; check_cmd; fmt_cmd; eval_cmd; verify_cmd; diff_cmd;
            bundle_cmd;
          ]))
