(* Tests for the static-analysis subsystem: diagnostics, the lint pass
   framework, the message-range-aware coverage fix, and the cross-layer
   HPE-consistency and threat-traceability passes.  One fixture policy per
   diagnostic code, asserting the exact code and rule indices emitted. *)

module Ast = Secpol_policy.Ast
module Parser = Secpol_policy.Parser
module Compile = Secpol_policy.Compile
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Lint = Secpol_policy.Lint
module Diagnostic = Secpol_policy.Diagnostic
module Json = Secpol_policy.Json
module V = Secpol_vehicle

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let compile_ok src =
  match Parser.parse src with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok p -> (
      match Compile.compile p with
      | Ok (db, _) -> db
      | Error issues ->
          Alcotest.fail
            ("compile failed: "
            ^ String.concat "; "
                (List.map (fun (i : Compile.issue) -> i.message) issues)))

let lint ?(config = Lint.default_config) ?passes src =
  Lint.run ?passes config (compile_ok src)

let codes diags =
  List.map (fun (d : Diagnostic.t) -> Diagnostic.id d.code) diags

let only code diags = Diagnostic.by_code code diags

let rules_of (d : Diagnostic.t) = d.rules

(* ---------- diagnostic core ---------- *)

let test_codes_stable () =
  Alcotest.(check (list string))
    "ids are stable"
    [
      "SP001"; "SP002"; "SP003"; "SP004"; "SP005"; "SP006"; "SP007"; "SP008";
      "SP009"; "SP010"; "SP011"; "SP012"; "SP013"; "SP014";
    ]
    (List.map Diagnostic.id Diagnostic.all_codes);
  Alcotest.(check (list string))
    "slugs are stable"
    [
      "conflict"; "shadowed"; "coverage-gap"; "unreachable-rule";
      "mode-unknown"; "rate-deny"; "rate-ineffective"; "hpe-mismatch";
      "threat-untraced"; "mode-mergeable"; "region-empty"; "allow-widened";
      "threat-unmitigated"; "semantics-divergence";
    ]
    (List.map Diagnostic.slug Diagnostic.all_codes);
  List.iter
    (fun c ->
      Alcotest.(check bool) "id resolves" true (Diagnostic.code_of_id (Diagnostic.id c) = Some c);
      Alcotest.(check bool) "slug resolves" true
        (Diagnostic.code_of_id (Diagnostic.slug c) = Some c))
    Diagnostic.all_codes

let test_diagnostic_order () =
  let info = Diagnostic.make ~severity:Diagnostic.Info Diagnostic.Coverage_gap "i" in
  let warn = Diagnostic.make Diagnostic.Shadowed "w" in
  let err = Diagnostic.make Diagnostic.Conflict "e" in
  let sorted = List.sort Diagnostic.compare [ info; warn; err ] in
  Alcotest.(check (list string)) "errors first" [ "SP001"; "SP002"; "SP003" ]
    (codes sorted);
  Alcotest.(check bool) "worst is error" true
    (Diagnostic.worst sorted = Some Diagnostic.Error);
  Alcotest.(check bool) "worst of empty" true (Diagnostic.worst [] = None)

(* ---------- fixtures, one per code ---------- *)

let test_sp001_conflict () =
  let diags =
    lint
      "policy \"x\" version 1 { asset a { allow write from evil; deny write \
       from evil; } }"
  in
  match only Diagnostic.Conflict diags with
  | [ d ] ->
      Alcotest.(check (list int)) "rule indices" [ 0; 1 ] (rules_of d);
      Alcotest.(check bool) "error severity" true (d.severity = Diagnostic.Error);
      Alcotest.(check (option string)) "asset" (Some "a") d.asset
  | l -> Alcotest.fail (Printf.sprintf "expected 1 conflict, got %d" (List.length l))

let test_sp002_shadowed () =
  let diags =
    lint
      "policy \"x\" version 1 { asset a { allow rw from any; allow read from \
       alice; } }"
  in
  match only Diagnostic.Shadowed diags with
  | [ d ] -> Alcotest.(check (list int)) "winner and dead" [ 0; 1 ] (rules_of d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 shadowed, got %d" (List.length l))

let test_sp003_coverage_gap () =
  let diags =
    lint
      "policy \"x\" version 1 { default allow; asset a { allow read from \
       alice; } }"
  in
  match only Diagnostic.Coverage_gap diags with
  | [ d ] ->
      Alcotest.(check bool) "warning under default allow" true
        (d.severity = Diagnostic.Warning);
      Alcotest.(check (option string)) "subject" (Some "alice") d.subject;
      Alcotest.(check bool) "missing write cell" true (d.op = Some Ir.Write)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 gap, got %d" (List.length l))

let test_sp003_partial_coverage () =
  (* the satellite fix: a message-scoped rule must not count as covering the
     whole cell *)
  let diags =
    lint
      "policy \"x\" version 1 { default deny; asset a { allow read from \
       alice messages 0x100..0x10f; } }"
  in
  let gaps = only Diagnostic.Coverage_gap diags in
  (* the read cell is partially covered; the write cell is a plain gap *)
  check Alcotest.int "two findings" 2 (List.length gaps);
  match List.filter (fun (d : Diagnostic.t) -> d.op = Some Ir.Read) gaps with
  | [ d ] ->
      Alcotest.(check bool) "partial cell carries the decided range" true
        (d.msg_range = Some (0x100, 0x10f));
      Alcotest.(check bool) "info under default deny" true
        (d.severity = Diagnostic.Info)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 partial gap, got %d" (List.length l))

let test_sp004_unreachable_deny_overrides () =
  let diags =
    lint
      "policy \"x\" version 1 { asset a { deny write from any; allow write \
       from evil; } }"
  in
  match only Diagnostic.Unreachable_rule diags with
  | [ d ] -> Alcotest.(check (list int)) "deny #0 kills allow #1" [ 0; 1 ] (rules_of d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 unreachable, got %d" (List.length l))

let test_sp004_unreachable_allow_overrides () =
  let config = { Lint.default_config with strategy = Engine.Allow_overrides } in
  let src =
    "policy \"x\" version 1 { asset a { allow write from any; deny write \
     from evil; } }"
  in
  (match only Diagnostic.Unreachable_rule (lint ~config src) with
  | [ d ] -> Alcotest.(check (list int)) "allow #0 kills deny #1" [ 0; 1 ] (rules_of d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 unreachable, got %d" (List.length l)));
  (* under deny-overrides the deny still wins somewhere, so it is reachable *)
  Alcotest.(check int) "reachable under deny-overrides" 0
    (List.length (only Diagnostic.Unreachable_rule (lint src)))

let test_sp004_unreachable_first_match () =
  let config = { Lint.default_config with strategy = Engine.First_match } in
  (match
     only Diagnostic.Unreachable_rule
       (lint ~config
          "policy \"x\" version 1 { asset a { allow write from any; deny \
           write from evil; } }")
   with
  | [ d ] -> Alcotest.(check (list int)) "earlier allow wins" [ 0; 1 ] (rules_of d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 unreachable, got %d" (List.length l)));
  (* narrower rule first: both are reachable under first-match *)
  Alcotest.(check int) "narrow-first is fine" 0
    (List.length
       (only Diagnostic.Unreachable_rule
          (lint ~config
             "policy \"x\" version 1 { asset a { deny write from evil; allow \
              write from any; } }")))

let test_sp005_mode_unknown () =
  let config =
    { Lint.default_config with modes = Some [ "normal"; "fail_safe" ] }
  in
  let diags =
    lint ~config
      "policy \"x\" version 1 { mode remote_diagnotic { asset a { allow read \
       from alice; } } }"
  in
  match only Diagnostic.Mode_unknown diags with
  | [ d ] ->
      Alcotest.(check (list int)) "rule index" [ 0 ] (rules_of d);
      Alcotest.(check (option string)) "the typo" (Some "remote_diagnotic") d.mode;
      Alcotest.(check bool) "error severity" true (d.severity = Diagnostic.Error)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 mode-unknown, got %d" (List.length l))

let test_sp006_rate_on_deny () =
  (* the compiler refuses deny+rate, so exercise the defensive pass on a
     hand-built database *)
  let rule =
    {
      Ir.idx = 0;
      decision = Ast.Deny;
      ops = [ Ir.Write ];
      subjects = Ast.Any_subject;
      asset = "a";
      modes = None;
      messages = None;
      rate = Some (Ast.rate_limit ~count:1 ~window_ms:100);
      origin = "handmade v1";
    }
  in
  let db = { Ir.name = "handmade"; version = 1; default = Ast.Deny; rules = [ rule ] } in
  let diags = Lint.run ~passes:[ Lint.rate_pass ] Lint.default_config db in
  match only Diagnostic.Rate_deny diags with
  | [ d ] -> Alcotest.(check (list int)) "rule index" [ 0 ] (rules_of d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 rate-deny, got %d" (List.length l))

let test_sp007_rate_ineffective () =
  let diags =
    lint
      "policy \"x\" version 1 { asset a { allow write from evil rate 1 per \
       100; allow write from any; } }"
  in
  match only Diagnostic.Rate_ineffective diags with
  | [ d ] ->
      Alcotest.(check (list int)) "unlimited #1 defeats rated #0" [ 0; 1 ] (rules_of d)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 rate-ineffective, got %d" (List.length l))

(* ---------- clean policy ---------- *)

let test_clean_policy_no_diagnostics () =
  let diags =
    lint
      "policy \"clean\" version 1 { default deny; asset a { allow read from \
       alice; deny write from alice; } }"
  in
  Alcotest.(check (list string)) "no findings" [] (codes diags)

(* ---------- JSON ---------- *)

let test_json_value_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "he said \"hi\"\n");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "two" ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "\"unterminated"; "{} trailing"; "nul" ]

let test_diagnostic_json_roundtrip () =
  let db =
    compile_ok
      "policy \"x\" version 1 { default allow; asset a { allow write from \
       evil rate 1 per 100; deny write from evil; allow read from alice \
       messages 0x10..0x1f; } }"
  in
  let diags = Lint.run ~passes:Lint.builtin Lint.default_config db in
  Alcotest.(check bool) "fixture produces diagnostics" true (diags <> []);
  let rendered = Json.to_string (Lint.report_to_json db diags) in
  match Json.of_string rendered with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Option.bind (Json.member "diagnostics" json) Json.to_list with
      | None -> Alcotest.fail "no diagnostics field"
      | Some items ->
          let parsed =
            List.map
              (fun item ->
                match Diagnostic.of_json item with
                | Ok d -> d
                | Error e -> Alcotest.fail e)
              items
          in
          Alcotest.(check bool) "diagnostics survive the round trip" true
            (parsed = diags);
          check Alcotest.int "summary errors" (Diagnostic.count Diagnostic.Error diags)
            (Option.get
               (Option.bind
                  (Option.bind (Json.member "summary" json) (Json.member "errors"))
                  Json.to_int)))

(* ---------- cross-layer: HPE consistency (SP008) ---------- *)

let test_sp008_duplicate_id_mismatch () =
  (* two CAN bindings share id 0x50 on different assets; the policy allows
     the id for asset a only.  Per-id hardware filtering cannot express
     that split, so the HPE grants what the software engine denies. *)
  let bindings =
    [
      { Secpol_hpe.Config.msg_id = 0x50; asset = "a" };
      { Secpol_hpe.Config.msg_id = 0x50; asset = "b" };
    ]
  in
  let pass =
    V.Lint_passes.hpe_consistency ~bindings ~modes:[ "normal" ]
      ~subjects:[ "node" ] ()
  in
  let db =
    compile_ok
      "policy \"x\" version 1 { default deny; asset a { allow read from node \
       messages 0x50; } }"
  in
  let diags = Lint.run ~passes:[ pass ] Lint.default_config db in
  match only Diagnostic.Hpe_mismatch diags with
  | [ d ] ->
      Alcotest.(check (option string)) "the denied asset" (Some "b") d.asset;
      Alcotest.(check bool) "error severity" true (d.severity = Diagnostic.Error);
      Alcotest.(check bool) "names the id" true (d.msg_range = Some (0x50, 0x50))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 hpe-mismatch, got %d" (List.length l))

let test_sp008_strategy_mismatch () =
  (* the HPE compiler resolves conflicts deny-overrides; a deployment that
     evaluates first-match disagrees on the conflicted cell *)
  let bindings = [ { Secpol_hpe.Config.msg_id = 0x50; asset = "a" } ] in
  let pass =
    V.Lint_passes.hpe_consistency ~bindings ~modes:[ "normal" ]
      ~subjects:[ "node" ] ()
  in
  let db =
    compile_ok
      "policy \"x\" version 1 { default deny; asset a { allow write from \
       node messages 0x50; deny write from node messages 0x50; } }"
  in
  let first_match = { Lint.default_config with strategy = Engine.First_match } in
  Alcotest.(check bool) "first-match deployment disagrees with HPE" true
    (only Diagnostic.Hpe_mismatch (Lint.run ~passes:[ pass ] first_match db) <> []);
  Alcotest.(check int) "deny-overrides deployment agrees" 0
    (List.length
       (only Diagnostic.Hpe_mismatch (Lint.run ~passes:[ pass ] Lint.default_config db)))

let test_sp008_baseline_policy_consistent () =
  (* the paper's transparency property: for the real car message map, the
     HPE configuration agrees with the software side everywhere.  The
     rated rule covers two bound IDs (airbag_deploy 0x10, failsafe_enter
     0x20) with a budget of one: each ID is decided with a fresh budget,
     so the safety ECU's lists approve both, as the software does. *)
  List.iter
    (fun (name, db) ->
      let diags =
        Lint.run
          ~passes:[ V.Lint_passes.hpe_consistency () ]
          Lint.default_config db
      in
      Alcotest.(check (list string))
        (name ^ ": no mismatches") [] (codes diags))
    [
      ( "baseline",
        Compile.compile_exn
          ~known_modes:(List.map V.Modes.name V.Modes.all)
          ~known_assets:V.Names.assets ~known_subjects:V.Names.assets
          (V.Policy_map.baseline ()) );
      ( "rated",
        compile_ok
          "policy \"x\" version 1 { asset safety_critical { allow write \
           from safety_critical messages 0x10..0x20 rate 1 per 1000; } }" );
    ]

(* ---------- cross-layer: threat traceability (SP009) ---------- *)

let test_sp009_orphaned_threat () =
  (* a policy that only protects the EV-ECU orphans the EPS rows of
     Table I, among others *)
  let db =
    compile_ok
      "policy \"x\" version 1 { default deny; mode normal { asset ev_ecu { \
       allow read from sensors; } } }"
  in
  let diags =
    Lint.run ~passes:[ V.Lint_passes.threat_traceability () ] Lint.default_config db
  in
  let untraced = only Diagnostic.Threat_untraced diags in
  Alcotest.(check bool) "eps_deactivation orphaned" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.asset = Some V.Names.eps)
       untraced);
  Alcotest.(check bool) "several rows orphaned" true (List.length untraced > 5);
  Alcotest.(check bool) "warning severity" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning)
       untraced)

let test_sp009_derived_policy_traces_all () =
  (* the policy derived from the full Table-I model must trace every row *)
  let model = V.Threat_catalog.model () in
  let db =
    Compile.compile_exn (Secpol_policy.Derive.model_to_policy model)
  in
  let diags =
    Lint.run ~passes:[ V.Lint_passes.threat_traceability () ] Lint.default_config db
  in
  Alcotest.(check (list string)) "every row traced" [] (codes diags)

let () =
  Alcotest.run "secpol_lint"
    [
      ( "diagnostics",
        [
          quick "stable codes" test_codes_stable;
          quick "ordering + worst" test_diagnostic_order;
        ] );
      ( "fixtures",
        [
          quick "SP001 conflict" test_sp001_conflict;
          quick "SP002 shadowed" test_sp002_shadowed;
          quick "SP003 coverage gap" test_sp003_coverage_gap;
          quick "SP003 partial coverage" test_sp003_partial_coverage;
          quick "SP004 deny-overrides" test_sp004_unreachable_deny_overrides;
          quick "SP004 allow-overrides" test_sp004_unreachable_allow_overrides;
          quick "SP004 first-match" test_sp004_unreachable_first_match;
          quick "SP005 mode unknown" test_sp005_mode_unknown;
          quick "SP006 rate on deny" test_sp006_rate_on_deny;
          quick "SP007 rate ineffective" test_sp007_rate_ineffective;
          quick "clean policy" test_clean_policy_no_diagnostics;
        ] );
      ( "json",
        [
          quick "value round trip" test_json_value_roundtrip;
          quick "rejects garbage" test_json_rejects_garbage;
          quick "diagnostic round trip" test_diagnostic_json_roundtrip;
        ] );
      ( "hpe-consistency",
        [
          quick "SP008 duplicate id" test_sp008_duplicate_id_mismatch;
          quick "SP008 strategy split" test_sp008_strategy_mismatch;
          quick "baseline is consistent" test_sp008_baseline_policy_consistent;
        ] );
      ( "threat-traceability",
        [
          quick "SP009 orphaned threat" test_sp009_orphaned_threat;
          quick "derived policy traces all" test_sp009_derived_policy_traces_all;
        ] );
    ]
