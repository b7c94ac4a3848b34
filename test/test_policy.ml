(* Tests for the policy DSL: lexer, parser, printer, compiler, engine,
   the lint's rule-pair findings, derivation and updates. *)

module Ast = Secpol_policy.Ast
module Lexer = Secpol_policy.Lexer
module Parser = Secpol_policy.Parser
module Printer = Secpol_policy.Printer
module Compile = Secpol_policy.Compile
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Reference = Secpol_policy.Reference
module Lint = Secpol_policy.Lint
module Diagnostic = Secpol_policy.Diagnostic
module Derive = Secpol_policy.Derive
module Update = Secpol_policy.Update
module Threat = Secpol_threat.Threat

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let sample_source =
  {|
# EV-ECU protection, per the connected-car case study
policy "ev_ecu_protection" version 2 {
  default deny;
  mode normal, fail_safe {
    asset ev_ecu {
      allow read from sensors, door_locks;
      deny  write from infotainment;
      allow write from safety messages 0x100..0x10f, 0x200;
    }
  }
  asset engine {
    allow read from any;
  }
}
|}

let parse_ok src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let compile_ok ?known_modes ?known_assets ?known_subjects src =
  match Compile.compile ?known_modes ?known_assets ?known_subjects (parse_ok src) with
  | Ok (db, _) -> db
  | Error issues ->
      Alcotest.fail
        ("compile failed: "
        ^ String.concat "; "
            (List.map (fun (i : Compile.issue) -> i.message) issues))

(* the rule pairs one lint pass reports, each as its sorted rule indices *)
let findings pass db =
  List.map
    (fun (d : Diagnostic.t) -> d.rules)
    (Lint.run ~passes:[ pass ] Lint.default_config db)

let conflicts = findings Lint.conflict_pass

let shadowed = findings Lint.shadow_pass

(* ---------- Lexer ---------- *)

let token_kinds src =
  List.map fst (Lexer.tokenize src)

let test_lexer_basic () =
  check Alcotest.int "token count" 7
    (List.length (Lexer.tokenize "policy \"x\" version 1 { }"));
  match token_kinds "allow read from any;" with
  | [ Lexer.ALLOW; Lexer.READ; Lexer.FROM; Lexer.ANY; Lexer.SEMI; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_numbers () =
  (match token_kinds "0x10f 256" with
  | [ Lexer.INT 0x10f; Lexer.INT 256; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "numbers mis-lexed");
  Alcotest.check_raises "hex without digits"
    (Lexer.Lex_error ("hex literal with no digits", { Lexer.line = 1; column = 1 }))
    (fun () -> ignore (Lexer.tokenize "0x"))

let test_lexer_comments () =
  match token_kinds "# comment line\nallow // trailing\nread" with
  | [ Lexer.ALLOW; Lexer.READ; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_strings () =
  (match token_kinds {|"hello \"world\""|} with
  | [ Lexer.STRING s; Lexer.EOF ] ->
      check Alcotest.string "escapes" {|hello "world"|} s
  | _ -> Alcotest.fail "string mis-lexed");
  match Lexer.tokenize "\"unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "accepted unterminated string"

let test_lexer_dotdot () =
  (match token_kinds "1..5" with
  | [ Lexer.INT 1; Lexer.DOTDOT; Lexer.INT 5; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "range mis-lexed");
  match Lexer.tokenize "1.5" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "accepted single dot"

let test_lexer_positions () =
  match Lexer.tokenize "allow\n  deny" with
  | [ (_, p1); (_, p2); _ ] ->
      check Alcotest.int "line 1" 1 p1.Lexer.line;
      check Alcotest.int "line 2" 2 p2.Lexer.line;
      check Alcotest.int "column 3" 3 p2.Lexer.column
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_illegal_char () =
  match Lexer.tokenize "allow @" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "accepted '@'"

(* ---------- Parser ---------- *)

let test_parse_sample () =
  let p = parse_ok sample_source in
  check Alcotest.string "name" "ev_ecu_protection" p.Ast.name;
  check Alcotest.int "version" 2 p.Ast.version;
  check Alcotest.int "sections" 3 (List.length p.Ast.sections)

let test_parse_errors () =
  let bad =
    [
      "policy missing_quotes version 1 { }";
      "policy \"x\" version { }";
      "policy \"x\" version 1 { asset a { allow bogus from any; } }";
      "policy \"x\" version 1 { asset a { allow read any; } }";
      "policy \"x\" version 1 { asset a { allow read from any } }";
      "policy \"x\" version 1 { asset a { allow read from any; } ";
      "policy \"x\" version 1 { } trailing";
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error e ->
          Alcotest.(check bool) "error has position" true
            (String.length e > 0 && String.sub e 0 4 = "line"))
    bad

let test_parse_empty_range_rejected () =
  match
    Parser.parse
      "policy \"x\" version 1 { asset a { allow read from any messages 5..2; } }"
  with
  | Ok _ -> Alcotest.fail "accepted empty range"
  | Error _ -> ()

let test_parse_many () =
  let two = "policy \"a\" version 1 { }\npolicy \"b\" version 2 { }" in
  match Parser.parse_many two with
  | Ok [ a; b ] ->
      check Alcotest.string "first" "a" a.Ast.name;
      check Alcotest.string "second" "b" b.Ast.name
  | Ok _ -> Alcotest.fail "wrong count"
  | Error e -> Alcotest.fail e

(* ---------- Printer round trip ---------- *)

let test_print_parse_roundtrip () =
  let p = parse_ok sample_source in
  let printed = Printer.to_string p in
  let p' = parse_ok printed in
  Alcotest.(check bool) "round trip equal" true (Ast.equal p p')

let keywords =
  [
    "policy"; "version"; "mode"; "asset"; "default"; "allow"; "deny"; "read";
    "write"; "rw"; "from"; "messages"; "rate"; "per"; "any";
  ]

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) ->
        let word =
          String.make 1 c ^ String.concat "" (List.map (String.make 1) rest)
        in
        if List.mem word keywords then word ^ "_x" else word)
      (pair (char_range 'a' 'z') (small_list (char_range 'a' 'z'))))

let rule_gen =
  QCheck.Gen.(
    let* decision = oneofl [ Ast.Allow; Ast.Deny ] in
    let* op = oneofl [ Ast.Read; Ast.Write; Ast.Rw ] in
    let* subjects =
      oneof
        [
          return Ast.Any_subject;
          map (fun l -> Ast.Subjects l) (list_size (1 -- 4) ident_gen);
        ]
    in
    let* messages =
      oneof
        [
          return None;
          map
            (fun ids ->
              Some
                (List.map
                   (fun (lo, extra) -> Ast.range lo (lo + extra))
                   ids))
            (list_size (1 -- 3) (pair (0 -- 100) (0 -- 10)));
        ]
    in
    let* rate =
      if decision = Ast.Deny then return None
      else
        oneof
          [
            return None;
            map
              (fun (count, window_ms) ->
                Some (Ast.rate_limit ~count ~window_ms))
              (pair (1 -- 100) (1 -- 10_000));
          ]
    in
    return { Ast.decision; op; subjects; messages; rate })

let policy_gen =
  QCheck.Gen.(
    let block_gen =
      let* asset = ident_gen in
      let* rules = list_size (1 -- 4) rule_gen in
      return { Ast.asset; rules }
    in
    let section_gen =
      oneof
        [
          map (fun b -> Ast.Global b) block_gen;
          (let* modes = list_size (1 -- 3) ident_gen in
           let* blocks = list_size (1 -- 2) block_gen in
           return (Ast.Modes (modes, blocks)));
        ]
    in
    let* name = ident_gen in
    let* version = 0 -- 100 in
    let* default = oneofl [ []; [ Ast.Default Ast.Deny ]; [ Ast.Default Ast.Allow ] ] in
    let* sections = list_size (0 -- 4) section_gen in
    return { Ast.name; version; sections = default @ sections })

let prop_printer_roundtrip =
  QCheck.Test.make ~name:"printer/parser round trip on random policies"
    ~count:300 (QCheck.make policy_gen) (fun p ->
      match Parser.parse (Printer.to_string p) with
      | Ok p' -> Ast.normalise p = Ast.normalise p'
      | Error _ -> false)

let test_normalise_merges_ranges () =
  let r =
    {
      Ast.decision = Ast.Allow;
      op = Ast.Read;
      subjects = Ast.Any_subject;
      messages = Some [ Ast.range 5 10; Ast.range 8 12; Ast.range 13 20 ];
      rate = None;
    }
  in
  let p =
    Ast.normalise
      { Ast.name = "n"; version = 1; sections = [ Ast.Global { asset = "a"; rules = [ r ] } ] }
  in
  match p.Ast.sections with
  | [ Ast.Global { rules = [ { messages = Some [ m ]; _ } ]; _ } ] ->
      check Alcotest.int "merged lo" 5 m.Ast.lo;
      check Alcotest.int "merged hi" 20 m.Ast.hi
  | _ -> Alcotest.fail "ranges not merged"

let test_normalise_empty_subjects () =
  check Alcotest.bool "empty list becomes any" true
    (Ast.normalise_subjects (Ast.Subjects []) = Ast.Any_subject)

(* ---------- Compiler ---------- *)

let test_compile_sample () =
  let db = compile_ok sample_source in
  check Alcotest.int "version" 2 db.Ir.version;
  Alcotest.(check bool) "default deny" true (db.Ir.default = Ast.Deny);
  (* rw rules don't appear here; 3 rules in the mode section + 1 global *)
  check Alcotest.int "rule count" 4 (List.length db.Ir.rules);
  Alcotest.(check (list string)) "assets" [ "engine"; "ev_ecu" ] (Ir.assets db);
  Alcotest.(check (list string)) "subjects"
    [ "door_locks"; "infotainment"; "safety"; "sensors" ]
    (Ir.subjects db)

let test_compile_default_deny_when_absent () =
  let db = compile_ok "policy \"x\" version 1 { asset a { allow rw from any; } }" in
  Alcotest.(check bool) "fail closed" true (db.Ir.default = Ast.Deny);
  (* rw expands to both ops in one rule *)
  match db.Ir.rules with
  | [ r ] -> check Alcotest.int "two ops" 2 (List.length r.Ir.ops)
  | _ -> Alcotest.fail "expected one rule"

let test_compile_multiple_defaults_error () =
  match
    Compile.compile
      (parse_ok "policy \"x\" version 1 { default deny; default allow; }")
  with
  | Ok _ -> Alcotest.fail "accepted two defaults"
  | Error _ -> ()

let test_compile_empty_mode_section_error () =
  match Compile.compile (parse_ok "policy \"x\" version 1 { mode m { } }") with
  | Ok _ -> Alcotest.fail "accepted empty mode section"
  | Error _ -> ()

let test_compile_warnings () =
  match
    Compile.compile ~known_modes:[ "normal" ] ~known_assets:[ "ev_ecu" ]
      ~known_subjects:[ "sensors" ]
      (parse_ok
         "policy \"x\" version 1 { mode weird { asset unknown { allow read \
          from stranger; } } }")
  with
  | Error _ -> Alcotest.fail "warnings should not fail compilation"
  | Ok (_, issues) ->
      check Alcotest.int "three warnings" 3
        (List.length (List.filter (fun (i : Compile.issue) -> i.severity = `Warning) issues))

let test_compile_of_source_error_rendering () =
  match Compile.of_source "policy \"x\" version 1 {" with
  | Ok _ -> Alcotest.fail "accepted truncated source"
  | Error e -> Alcotest.(check bool) "positioned" true (String.sub e 0 4 = "line")

(* ---------- Engine ---------- *)

let request ?(mode = "normal") ?(subject = "sensors") ?(asset = "ev_ecu")
    ?(op = Ir.Read) ?msg_id () =
  { Ir.mode; subject; asset; op; msg_id }

let test_engine_allow_and_default () =
  let db = compile_ok sample_source in
  let e = Engine.create db in
  Alcotest.(check bool) "sensors read allowed" true
    (Engine.permitted e (request ()));
  Alcotest.(check bool) "unknown subject denied by default" false
    (Engine.permitted e (request ~subject:"stranger" ()));
  Alcotest.(check bool) "unknown asset denied by default" false
    (Engine.permitted e (request ~asset:"mystery" ()))

let test_engine_mode_scoping () =
  let db = compile_ok sample_source in
  let e = Engine.create db in
  Alcotest.(check bool) "allowed in fail_safe" true
    (Engine.permitted e (request ~mode:"fail_safe" ()));
  Alcotest.(check bool) "not allowed in remote_diagnostic" false
    (Engine.permitted e (request ~mode:"remote_diagnostic" ()))

let test_engine_message_scoping () =
  let db = compile_ok sample_source in
  let e = Engine.create db in
  let req msg_id =
    request ~subject:"safety" ~op:Ir.Write ?msg_id ()
  in
  Alcotest.(check bool) "in range" true
    (Engine.permitted e (req (Some 0x105)));
  Alcotest.(check bool) "single id" true (Engine.permitted e (req (Some 0x200)));
  Alcotest.(check bool) "out of range" false
    (Engine.permitted e (req (Some 0x300)));
  Alcotest.(check bool) "no msg id on message-scoped rule" false
    (Engine.permitted e (req None))

let test_engine_deny_overrides () =
  let src =
    "policy \"x\" version 1 { default deny; asset a { allow rw from any; deny \
     write from evil; } }"
  in
  let e = Engine.create (compile_ok src) in
  Alcotest.(check bool) "good write" true
    (Engine.permitted e (request ~subject:"good" ~asset:"a" ~op:Ir.Write ()));
  Alcotest.(check bool) "evil write denied" false
    (Engine.permitted e (request ~subject:"evil" ~asset:"a" ~op:Ir.Write ()));
  Alcotest.(check bool) "evil read still allowed" true
    (Engine.permitted e (request ~subject:"evil" ~asset:"a" ~op:Ir.Read ()))

let test_engine_first_match () =
  let src =
    "policy \"x\" version 1 { default deny; asset a { allow write from evil; \
     deny write from evil; } }"
  in
  let e = Engine.create ~strategy:Engine.First_match (compile_ok src) in
  Alcotest.(check bool) "first rule wins" true
    (Engine.permitted e (request ~subject:"evil" ~asset:"a" ~op:Ir.Write ()));
  let e' = Engine.create ~strategy:Engine.Deny_overrides (compile_ok src) in
  Alcotest.(check bool) "deny overrides disagrees" false
    (Engine.permitted e' (request ~subject:"evil" ~asset:"a" ~op:Ir.Write ()))

let test_engine_allow_overrides () =
  let src =
    "policy \"x\" version 1 { default deny; asset a { deny write from evil; \
     allow write from evil; } }"
  in
  let e = Engine.create ~strategy:Engine.Allow_overrides (compile_ok src) in
  Alcotest.(check bool) "allow overrides" true
    (Engine.permitted e (request ~subject:"evil" ~asset:"a" ~op:Ir.Write ()))

(* A stalled engine answers nothing: every decision entry point raises
   [Unavailable] (callers fail closed), and nothing is counted. *)
let test_engine_stalled_fails_closed () =
  let e = Engine.create (compile_ok sample_source) in
  let r = request () in
  Alcotest.(check bool) "allowed while healthy" true (Engine.permitted e r);
  Engine.set_stalled e true;
  let before = Engine.stats e in
  let batch = Secpol_policy.Batch.create ~capacity:1 () in
  Secpol_policy.Batch.push batch r;
  let out = [| Ast.Allow |] in
  Alcotest.check_raises "decide" Engine.Unavailable (fun () ->
      ignore (Engine.decide e r));
  Alcotest.check_raises "permitted" Engine.Unavailable (fun () ->
      ignore (Engine.permitted e r));
  Alcotest.check_raises "decide_batch" Engine.Unavailable (fun () ->
      Engine.decide_batch e batch ~out);
  Alcotest.(check bool) "stats did not move" true (Engine.stats e = before);
  Engine.set_stalled e false;
  Alcotest.(check bool) "allowed again after recovery" true
    (Engine.permitted e r)

let test_engine_swap_db () =
  let e = Engine.create (compile_ok sample_source) in
  let r = request () in
  Alcotest.(check bool) "allowed before" true (Engine.permitted e r);
  Engine.swap_db e (compile_ok "policy \"empty\" version 3 { default deny; }");
  Alcotest.(check bool) "denied after swap" false (Engine.permitted e r)

let test_engine_matched_rule_provenance () =
  let e = Engine.create (compile_ok sample_source) in
  match (Engine.decide e (request ())).Engine.matched with
  | Some rule ->
      check Alcotest.string "origin" "ev_ecu_protection v2" rule.Ir.origin
  | None -> Alcotest.fail "expected a matched rule"

(* ---------- Engine soundness properties ---------- *)

(* requests relevant to a database: its assets and subjects plus strangers *)
let requests_for (db : Ir.db) =
  let assets = "stranger_asset" :: Ir.assets db in
  let subjects = "stranger_subject" :: Ir.subjects db in
  let modes = [ "normal"; "other_mode" ] in
  List.concat_map
    (fun asset ->
      List.concat_map
        (fun subject ->
          List.concat_map
            (fun mode ->
              List.concat_map
                (fun op ->
                  [
                    { Ir.mode; subject; asset; op; msg_id = None };
                    { Ir.mode; subject; asset; op; msg_id = Some 5 };
                  ])
                [ Ir.Read; Ir.Write ])
            modes)
        subjects)
    assets

let strip_rates (p : Ast.policy) =
  let strip_rule (r : Ast.rule) = { r with Ast.rate = None } in
  {
    p with
    Ast.sections =
      List.map
        (function
          | Ast.Global b -> Ast.Global { b with rules = List.map strip_rule b.rules }
          | Ast.Modes (m, bs) ->
              Ast.Modes
                (m, List.map (fun (b : Ast.asset_block) ->
                        { b with rules = List.map strip_rule b.rules }) bs)
          | Ast.Default _ as s -> s)
        p.Ast.sections;
  }

let prop_default_deny_for_strangers =
  QCheck.Test.make ~name:"unknown subjects fall to the default" ~count:100
    (QCheck.make policy_gen) (fun p ->
      (* force default deny and drop Any_subject rules *)
      let p =
        {
          p with
          Ast.sections =
            Ast.Default Ast.Deny
            :: List.filter_map
                 (function
                   | Ast.Default _ -> None
                   | s -> Some s)
                 p.Ast.sections;
        }
      in
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) ->
          let has_any =
            List.exists
              (fun (r : Ir.rule) -> r.subjects = Ast.Any_subject)
              db.Ir.rules
          in
          QCheck.assume (not has_any);
          let e = Engine.create db in
          List.for_all
            (fun asset ->
              not
                (Engine.permitted e
                   {
                     Ir.mode = "normal";
                     subject = "stranger_subject";
                     asset;
                     op = Ir.Write;
                     msg_id = None;
                   }))
            (Ir.assets db))

let prop_strategies_agree_without_conflicts =
  QCheck.Test.make ~name:"all strategies agree on conflict-free policies"
    ~count:100 (QCheck.make policy_gen) (fun p ->
      let p = strip_rates p in
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) ->
          QCheck.assume (conflicts db = []);
          let engines =
            List.map
              (fun s -> Engine.create ~strategy:s db)
              [ Engine.Deny_overrides; Engine.Allow_overrides; Engine.First_match ]
          in
          List.for_all
            (fun req ->
              match List.map (fun e -> Engine.permitted e req) engines with
              | [ a; b; c ] -> a = b && b = c
              | _ -> false)
            (requests_for db))

let prop_normalise_idempotent =
  QCheck.Test.make ~name:"normalise is idempotent" ~count:200
    (QCheck.make policy_gen) (fun p ->
      Ast.normalise (Ast.normalise p) = Ast.normalise p)

let prop_deny_overrides_monotone_in_denies =
  QCheck.Test.make ~name:"adding a deny rule never grants more" ~count:100
    (QCheck.make (QCheck.Gen.pair policy_gen rule_gen)) (fun (p, extra) ->
      let extra = { extra with Ast.decision = Ast.Deny; rate = None } in
      let p = strip_rates p in
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) -> (
          let target_asset =
            match Ir.assets db with a :: _ -> a | [] -> "lonely"
          in
          let p' =
            {
              p with
              Ast.sections =
                p.Ast.sections
                @ [ Ast.Global { Ast.asset = target_asset; rules = [ extra ] } ];
            }
          in
          match Compile.compile p' with
          | Error _ -> QCheck.assume_fail ()
          | Ok (db', _) ->
              let e = Engine.create db in
              let e' = Engine.create db' in
              List.for_all
                (fun req ->
                  (not (Engine.permitted e' req)) || Engine.permitted e req)
                (requests_for db)))

(* ---------- Intervals ---------- *)

module Intervals = Secpol_policy.Intervals

let test_intervals_normalise () =
  let t = Intervals.of_ranges [ (8, 12); (5, 10); (13, 20); (30, 30) ] in
  Alcotest.(check (list (pair int int))) "merged + sorted"
    [ (5, 20); (30, 30) ] (Intervals.ranges t);
  check Alcotest.int "cardinal" 17 (Intervals.cardinal t);
  Alcotest.(check bool) "empty" true (Intervals.is_empty Intervals.empty)

let test_intervals_mem () =
  let t = Intervals.of_ranges [ (0x100, 0x10f); (0x200, 0x200) ] in
  List.iter
    (fun (x, expect) ->
      Alcotest.(check bool) (Printf.sprintf "mem %#x" x) expect (Intervals.mem t x))
    [ (0x0ff, false); (0x100, true); (0x105, true); (0x10f, true);
      (0x110, false); (0x1ff, false); (0x200, true); (0x201, false) ];
  Alcotest.(check bool) "empty never matches" false (Intervals.mem Intervals.empty 0)

let test_intervals_add_remove () =
  let t = Intervals.add Intervals.empty ~lo:10 ~hi:20 in
  (* adjacent ranges coalesce *)
  let t = Intervals.add t ~lo:21 ~hi:25 in
  Alcotest.(check (list (pair int int))) "coalesced" [ (10, 25) ] (Intervals.ranges t);
  (* removal splits a straddling range *)
  let t = Intervals.remove t ~lo:15 ~hi:17 in
  Alcotest.(check (list (pair int int))) "split"
    [ (10, 14); (18, 25) ] (Intervals.ranges t);
  let t = Intervals.remove t ~lo:0 ~hi:100 in
  Alcotest.(check bool) "removed all" true (Intervals.is_empty t)

let test_intervals_validation () =
  Alcotest.check_raises "reversed pair"
    (Invalid_argument "Intervals: bad range 9..5") (fun () ->
      ignore (Intervals.of_ranges [ (9, 5) ]));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Intervals: bad range -1..5") (fun () ->
      ignore (Intervals.add Intervals.empty ~lo:(-1) ~hi:5))

(* ---------- Compiled decision table ---------- *)

module Table = Secpol_policy.Table

let test_table_const_folding () =
  (* unconditional head rules collapse to constants *)
  let db =
    compile_ok
      "policy \"f\" version 1 { default deny; asset a { allow rw from alice; \
       deny write from bob; } }"
  in
  let e = Engine.create db in
  let s = Engine.table_stats e in
  (* alice:read, alice:write, bob:write are exact buckets; all unconditional *)
  check Alcotest.int "buckets" 3 s.Table.buckets;
  check Alcotest.int "all folded" 3 s.Table.folded;
  check Alcotest.int "no wildcard buckets" 0 s.Table.wildcard_buckets;
  Alcotest.(check bool) "alice write" true
    (Engine.permitted e (request ~subject:"alice" ~asset:"a" ~op:Ir.Write ()));
  Alcotest.(check bool) "bob write" false
    (Engine.permitted e (request ~subject:"bob" ~asset:"a" ~op:Ir.Write ()))

let test_table_no_folding_under_conditions () =
  (* mode-, message- and rate-conditioned head rules must keep the scan *)
  let db =
    compile_ok
      "policy \"f\" version 1 { default deny; mode m { asset a { allow read \
       from x; } } asset b { allow write from y messages 1..5; } asset c { \
       allow write from z rate 1 per 100; } }"
  in
  let s = Engine.table_stats (Engine.create db) in
  check Alcotest.int "nothing folded" 0 s.Table.folded

let test_table_wildcard_fallback () =
  let db =
    compile_ok
      "policy \"w\" version 1 { default deny; asset a { allow read from any; \
       deny read from evil; } }"
  in
  let e = Engine.create db in
  let s = Engine.table_stats e in
  check Alcotest.int "wildcard bucket for unnamed subjects" 1 s.Table.wildcard_buckets;
  Alcotest.(check bool) "stranger allowed via wildcard" true
    (Engine.permitted e (request ~subject:"stranger" ~asset:"a" ()));
  Alcotest.(check bool) "named subject sees merged bucket (deny overrides)" false
    (Engine.permitted e (request ~subject:"evil" ~asset:"a" ()));
  (* first-match reorders: the any-allow precedes the deny in source order *)
  let e' = Engine.create ~strategy:Engine.First_match db in
  Alcotest.(check bool) "first match lets the earlier any-allow win" true
    (Engine.permitted e' (request ~subject:"evil" ~asset:"a" ()))

let test_table_swap_recompiles () =
  let e = Engine.create (compile_ok sample_source) in
  let before = Engine.table_stats e in
  Engine.swap_db e
    (compile_ok "policy \"tiny\" version 9 { default deny; asset a { allow \
                 read from x; } }");
  let after = Engine.table_stats e in
  Alcotest.(check bool) "table recompiled on swap" true (before <> after);
  check Alcotest.int "one bucket" 1 after.Table.buckets

(* ---------- Compiled / interpreted equivalence ---------- *)

let all_strategies =
  [ Engine.Deny_overrides; Engine.Allow_overrides; Engine.First_match ]

let prop_compiled_equals_interpreted =
  QCheck.Test.make
    ~name:"compiled and interpreted engines agree (decision, rule, stats)"
    ~count:200 (QCheck.make policy_gen) (fun p ->
      match Compile.compile p with
      | Error _ -> QCheck.assume_fail ()
      | Ok (db, _) ->
          List.for_all
            (fun strategy ->
              let reference = Reference.create ~strategy db in
              let engine = Engine.create ~strategy db in
              let reqs = requests_for db in
              let allows = ref 0 and denies = ref 0 in
              (* repeated probes at advancing clocks drive any rate-limited
                 rules through grant, exhaustion and window-expiry on both
                 sides in lockstep *)
              List.for_all
                (fun now ->
                  List.for_all
                    (fun req ->
                      let decision, matched =
                        Reference.decide ~now reference req
                      in
                      incr (if decision = Ast.Allow then allows else denies);
                      let o = Engine.decide ~now engine req in
                      decision = o.Engine.decision && matched = o.Engine.matched)
                    reqs)
                [ 0.0; 0.0; 0.001; 0.5; 20.0 ]
              && Engine.stats engine
                 = {
                     Engine.decisions = !allows + !denies;
                     allows = !allows;
                     denies = !denies;
                   })
            all_strategies)

(* ---------- Behavioural rate limits ---------- *)

let test_rate_parses_and_prints () =
  let src =
    "policy \"r\" version 1 { asset lock { allow write from telematics rate \
     2 per 1000; } }"
  in
  let p = parse_ok src in
  (match p.Ast.sections with
  | [ Ast.Global { rules = [ { rate = Some r; _ } ]; _ } ] ->
      check Alcotest.int "count" 2 r.Ast.count;
      check Alcotest.int "window" 1000 r.Ast.window_ms
  | _ -> Alcotest.fail "rate not parsed");
  let p' = parse_ok (Printer.to_string p) in
  Alcotest.(check bool) "round trip" true (Ast.equal p p')

let test_rate_rejects_bad () =
  (match
     Parser.parse
       "policy \"r\" version 1 { asset a { allow write from x rate 0 per 10; } }"
   with
  | Ok _ -> Alcotest.fail "accepted zero count"
  | Error _ -> ());
  match
    Compile.compile
      (parse_ok
         "policy \"r\" version 1 { asset a { deny write from x rate 1 per 10; } }")
  with
  | Ok _ -> Alcotest.fail "accepted rate on a deny rule"
  | Error _ -> ()

let rated_engine () =
  Engine.create
    (compile_ok
       "policy \"r\" version 1 { default deny; asset lock { allow write from \
        telematics rate 2 per 1000; } }")

let rated_req = request ~subject:"telematics" ~asset:"lock" ~op:Ir.Write ()

let test_rate_sliding_window () =
  let e = rated_engine () in
  Alcotest.(check bool) "1st allowed" true (Engine.permitted ~now:0.0 e rated_req);
  Alcotest.(check bool) "2nd allowed" true (Engine.permitted ~now:0.1 e rated_req);
  Alcotest.(check bool) "3rd denied (budget)" false
    (Engine.permitted ~now:0.2 e rated_req);
  (* window slides: the grant at t=0.0 expires after 1 s *)
  Alcotest.(check bool) "allowed again after the window" true
    (Engine.permitted ~now:1.05 e rated_req);
  Alcotest.(check bool) "then the budget binds again" false
    (Engine.permitted ~now:1.06 e rated_req)

let test_rate_window_boundary () =
  let e =
    Engine.create
      (compile_ok
         "policy \"r\" version 1 { default deny; asset lock { allow write \
          from telematics rate 1 per 1000; } }")
  in
  Alcotest.(check bool) "grant at 0" true
    (Engine.permitted ~now:0.0 e rated_req);
  Alcotest.(check bool) "denied inside the window" false
    (Engine.permitted ~now:0.5 e rated_req);
  Alcotest.(check bool) "denied just inside" false
    (Engine.permitted ~now:0.9999 e rated_req);
  (* the grant at 0 expires at exactly 0 + window *)
  Alcotest.(check bool) "allowed exactly at the boundary" true
    (Engine.permitted ~now:1.0 e rated_req)

let test_rate_backwards_clock () =
  let e =
    Engine.create
      (compile_ok
         "policy \"r\" version 1 { default deny; asset lock { allow write \
          from telematics rate 1 per 1000; } }")
  in
  Alcotest.(check bool) "grant at 5" true
    (Engine.permitted ~now:5.0 e rated_req);
  (* the caller's clock steps backwards: the live grant must keep blocking
     (fail-closed), not linger forever nor vanish early *)
  Alcotest.(check bool) "denied at the regressed clock" false
    (Engine.permitted ~now:0.0 e rated_req);
  Alcotest.(check bool) "still denied just before expiry" false
    (Engine.permitted ~now:5.999 e rated_req);
  Alcotest.(check bool) "allowed once the grant expires" true
    (Engine.permitted ~now:6.0 e rated_req)

let test_rate_window_clamp () =
  let module W = Secpol_policy.Rate_window in
  let w = W.create ~count:2 ~window_ms:1000 in
  ignore (W.admit w ~now:5.0);
  (* a regressed admit is stamped at the newest recorded grant (5.0),
     keeping the ring sorted for front-only pruning *)
  ignore (W.admit w ~now:3.0);
  check Alcotest.int "both live at 5.5" 2 (W.in_window w ~now:5.5);
  check Alcotest.int "both expire together at 6" 0 (W.in_window w ~now:6.0);
  W.reset w;
  (* reset clears the watermark too: early timestamps are usable again *)
  Alcotest.(check bool) "fresh window after reset" true (W.admit w ~now:0.0)

(* The ring against a list of live grant times: counts up to 9, so the
   ring grows past its first two slots and wraps, and a clock that mostly
   advances but sometimes steps back past a whole window.  Some steps only
   count the live grants, so a grant can expire before a regressed one is
   made: that one is still stamped with the newest grant. *)
let prop_rate_window_model =
  let module W = Secpol_policy.Rate_window in
  QCheck.Test.make ~name:"ring window = list of grants" ~count:500
    QCheck.(
      make
        Gen.(
          triple (0 -- 9) (1 -- 2000)
            (list_size (0 -- 60)
               (triple
                  (frequency [ (4, return 1); (1, return (-4)) ])
                  (0 -- 700)
                  (frequency [ (3, return true); (1, return false) ])))))
    (fun (count, window_ms, steps) ->
      let w = W.create ~count ~window_ms in
      let window = float_of_int window_ms /. 1000.0 in
      let live = ref [] and newest = ref neg_infinity and now = ref 0.0 in
      List.for_all
        (fun (dir, ms, ask) ->
          now := !now +. (float_of_int (dir * ms) /. 1000.0);
          let admitted = ask && W.admit w ~now:!now in
          live := List.filter (fun g -> g > !now -. window) !live;
          let room = ask && List.length !live < count in
          if room then begin
            newest := Float.max !now !newest;
            live := !live @ [ !newest ]
          end;
          admitted = room && W.in_window w ~now:!now = List.length !live)
        steps)

let test_rate_per_subject () =
  let e =
    Engine.create
      (compile_ok
         "policy \"r\" version 1 { default deny; asset lock { allow write \
          from any rate 1 per 1000; } }")
  in
  let req s = request ~subject:s ~asset:"lock" ~op:Ir.Write () in
  Alcotest.(check bool) "alice ok" true (Engine.permitted ~now:0.0 e (req "alice"));
  Alcotest.(check bool) "bob has his own budget" true
    (Engine.permitted ~now:0.0 e (req "bob"));
  Alcotest.(check bool) "alice exhausted" false
    (Engine.permitted ~now:0.1 e (req "alice"))

let test_rate_reset_on_swap () =
  let e = rated_engine () in
  Alcotest.(check bool) "1st" true (Engine.permitted ~now:0.0 e rated_req);
  Alcotest.(check bool) "2nd" true (Engine.permitted ~now:0.0 e rated_req);
  Alcotest.(check bool) "exhausted" false (Engine.permitted ~now:0.0 e rated_req);
  Engine.swap_db e (Engine.db e);
  Alcotest.(check bool) "fresh budget after update" true
    (Engine.permitted ~now:0.0 e rated_req)

(* ---------- Rule-pair findings (SP001, SP002) ---------- *)

let test_conflicts_detected () =
  let db =
    compile_ok
      "policy \"x\" version 1 { asset a { allow write from evil; deny write \
       from evil; } }"
  in
  check Alcotest.int "one conflict" 1 (List.length (conflicts db))

let test_no_conflict_on_disjoint () =
  let db =
    compile_ok
      "policy \"x\" version 1 { asset a { allow write from alice; deny write \
       from bob; } asset b { deny write from alice; } }"
  in
  check Alcotest.int "no conflicts" 0 (List.length (conflicts db))

let test_no_conflict_disjoint_messages () =
  let db =
    compile_ok
      "policy \"x\" version 1 { asset a { allow write from e messages 1..5; \
       deny write from e messages 6..9; } }"
  in
  check Alcotest.int "disjoint ranges no conflict" 0
    (List.length (conflicts db));
  let db2 =
    compile_ok
      "policy \"x\" version 1 { asset a { allow write from e messages 1..5; \
       deny write from e messages 5..9; } }"
  in
  check Alcotest.int "overlapping ranges conflict" 1
    (List.length (conflicts db2))

let test_shadowed_rules () =
  let db =
    compile_ok
      "policy \"x\" version 1 { asset a { allow rw from any; allow read from \
       alice; } }"
  in
  check Alcotest.int "one shadowed pair" 1 (List.length (shadowed db))

let test_mode_overlap_rules () =
  let db =
    compile_ok
      "policy \"x\" version 1 { mode m1 { asset a { allow write from e; } } \
       mode m2 { asset a { deny write from e; } } }"
  in
  check Alcotest.int "disjoint modes no conflict" 0
    (List.length (conflicts db));
  let db2 =
    compile_ok
      "policy \"x\" version 1 { mode m1, m2 { asset a { allow write from e; } \
       } mode m2 { asset a { deny write from e; } } }"
  in
  check Alcotest.int "shared mode conflicts" 1
    (List.length (conflicts db2))

let test_covers () =
  let broad_first =
    compile_ok
      "policy \"x\" version 1 { asset a { allow rw from any; allow read from \
       alice messages 1..5; } }"
  and narrow_first =
    compile_ok
      "policy \"x\" version 1 { asset a { allow read from alice messages \
       1..5; allow rw from any; } }"
  in
  Alcotest.(check (list (list int)))
    "broad covers narrow" [ [ 0; 1 ] ] (shadowed broad_first);
  Alcotest.(check (list (list int)))
    "narrow does not cover broad" [] (shadowed narrow_first)

(* ---------- Derivation ---------- *)

let dread =
  match Secpol_threat.Dread.of_list [ 8; 5; 4; 6; 4 ] with
  | Ok d -> d
  | Error e -> failwith e

let stride =
  match Secpol_threat.Stride.of_string "STD" with
  | Ok s -> s
  | Error e -> failwith e

let threat ?(id = "spoof_ecu") ?(legit = [ Threat.Read ]) () =
  Threat.make ~id ~title:"t" ~asset:"ev_ecu"
    ~entry_points:[ "sensors"; "door_locks" ] ~modes:[ "normal" ] ~stride
    ~dread ~attack_operation:Threat.Write ~legitimate_operations:legit ()

let test_row_access () =
  let acc legit = Derive.row_access (threat ~legit ()) in
  Alcotest.(check bool) "R" true (acc [ Threat.Read ] = Some Derive.R);
  Alcotest.(check bool) "W" true (acc [ Threat.Write ] = Some Derive.W);
  Alcotest.(check bool) "RW" true
    (acc [ Threat.Read; Threat.Write ] = Some Derive.RW);
  Alcotest.(check bool) "none" true (acc [] = None)

let test_threat_to_policy_blocks_attack () =
  let p = Derive.threat_to_policy (threat ()) in
  let db = Compile.compile_exn p in
  let e = Engine.create db in
  Alcotest.(check bool) "legit read allowed" true
    (Engine.permitted e (request ~subject:"sensors" ~op:Ir.Read ()));
  Alcotest.(check bool) "attack write denied" false
    (Engine.permitted e (request ~subject:"sensors" ~op:Ir.Write ()))

let test_threat_to_policy_residual () =
  let p = Derive.threat_to_policy (threat ~legit:[ Threat.Read; Threat.Write ] ()) in
  let e = Engine.create (Compile.compile_exn p) in
  Alcotest.(check bool) "residual: attack op still allowed" true
    (Engine.permitted e (request ~subject:"sensors" ~op:Ir.Write ()))

let test_model_to_policy () =
  let model =
    Secpol_threat.Model.make_exn ~use_case:"Test Case"
      ~assets:
        [ Secpol_threat.Asset.make ~id:"ev_ecu" ~name:"ECU"
            Secpol_threat.Asset.Safety_critical ]
      ~entry_points:
        [
          Secpol_threat.Entry_point.make ~id:"sensors" ~name:"S"
            Secpol_threat.Entry_point.Bus;
          Secpol_threat.Entry_point.make ~id:"door_locks" ~name:"D"
            Secpol_threat.Entry_point.Bus;
        ]
      ~modes:[ "normal" ] ~threats:[ threat () ] ()
  in
  let p = Derive.model_to_policy ~version:7 model in
  check Alcotest.string "name mangled" "test_case" p.Ast.name;
  check Alcotest.int "version" 7 p.Ast.version;
  let db = Compile.compile_exn p in
  Alcotest.(check bool) "default deny" true (db.Ir.default = Ast.Deny);
  check Alcotest.int "residuals" 0 (List.length (Derive.residual_risks model))

let test_derived_countermeasures_compile () =
  let model =
    Secpol_threat.Model.make_exn ~use_case:"cm"
      ~assets:
        [ Secpol_threat.Asset.make ~id:"ev_ecu" ~name:"ECU"
            Secpol_threat.Asset.Operational ]
      ~entry_points:
        [
          Secpol_threat.Entry_point.make ~id:"sensors" ~name:"S"
            Secpol_threat.Entry_point.Bus;
          Secpol_threat.Entry_point.make ~id:"door_locks" ~name:"D"
            Secpol_threat.Entry_point.Wireless;
        ]
      ~modes:[ "normal" ] ~threats:[ threat () ] ()
  in
  List.iter
    (fun (cm : Secpol_threat.Countermeasure.t) ->
      match cm.kind with
      | Secpol_threat.Countermeasure.Policy src -> (
          match Compile.of_source src with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("derived policy does not compile: " ^ e))
      | Secpol_threat.Countermeasure.Guideline _ ->
          Alcotest.fail "expected policy countermeasures")
    (Derive.countermeasures model)

(* ---------- Updates ---------- *)

let test_bundle_verify_and_tamper () =
  let b = Update.bundle (parse_ok sample_source) in
  Alcotest.(check bool) "verifies" true (Update.verify b);
  let evil = Update.tampered b ~payload:"policy \"evil\" version 99 { }" in
  Alcotest.(check bool) "tamper detected" false (Update.verify evil)

let test_bundle_of_source_validates () =
  (match Update.bundle_of_source "policy \"x\" version 1 { default deny; }" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Update.bundle_of_source "policy \"x\" version 1 {" with
  | Ok _ -> Alcotest.fail "accepted malformed source"
  | Error _ -> ()

let test_store_install_and_downgrade () =
  let store = Update.create () in
  let v1 = Update.bundle (parse_ok "policy \"p\" version 1 { default deny; }") in
  let v2 = Update.bundle (parse_ok "policy \"p\" version 2 { default deny; }") in
  (match Update.install store v1 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Update.install store v2 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Update.install store v1 with
  | Ok () -> Alcotest.fail "accepted downgrade"
  | Error _ -> ());
  (match Update.current store "p" with
  | Some b -> check Alcotest.int "current is v2" 2 b.Update.version
  | None -> Alcotest.fail "nothing installed");
  check Alcotest.int "history" 2 (List.length (Update.history store "p"));
  Alcotest.(check (list string)) "names" [ "p" ] (Update.names store)

let test_store_rejects_tampered () =
  let store = Update.create () in
  let b = Update.bundle (parse_ok "policy \"p\" version 1 { }") in
  match Update.install store (Update.tampered b ~payload:"policy \"p\" version 1 { default allow; }") with
  | Ok () -> Alcotest.fail "installed tampered bundle"
  | Error _ -> ()

let test_current_db () =
  let store = Update.create () in
  ignore
    (Update.install store
       (Update.bundle
          (parse_ok "policy \"p\" version 1 { asset a { allow read from x; } }")));
  match Update.current_db store "p" with
  | Some db -> check Alcotest.int "compiled" 1 (List.length db.Ir.rules)
  | None -> Alcotest.fail "expected a compiled db"

let test_signed_bundles () =
  let key = "oem-provisioned-key" in
  let b = Update.bundle (parse_ok "policy \"p\" version 1 { default deny; }") in
  Alcotest.(check bool) "unsigned fails authenticity" false
    (Update.verify_signed ~key b);
  let signed = Update.sign ~key b in
  Alcotest.(check bool) "signed verifies" true (Update.verify_signed ~key signed);
  Alcotest.(check bool) "wrong key rejected" false
    (Update.verify_signed ~key:"not-the-key" signed);
  Alcotest.(check bool) "tampering breaks the signature" false
    (Update.verify_signed ~key
       (Update.tampered signed ~payload:"policy \"p\" version 1 { default allow; }"));
  (* signing still passes plain integrity *)
  Alcotest.(check bool) "plain verify unaffected" true (Update.verify signed)

let test_install_signed () =
  let key = "oem-provisioned-key" in
  let store = Update.create () in
  let b = Update.bundle (parse_ok "policy \"p\" version 1 { default deny; }") in
  (match Update.install_signed store ~key b with
  | Ok () -> Alcotest.fail "installed an unsigned bundle"
  | Error _ -> ());
  (match Update.install_signed store ~key (Update.sign ~key:"wrong" b) with
  | Ok () -> Alcotest.fail "installed a wrongly-signed bundle"
  | Error _ -> ());
  (match Update.install_signed store ~key (Update.sign ~key b) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Update.current store "p" with
  | Some installed -> check Alcotest.int "v1 live" 1 installed.Update.version
  | None -> Alcotest.fail "nothing installed"

(* ---------- SP003 coverage lint ---------- *)

let coverage_findings db ~modes ~subjects ~assets =
  Lint.coverage_pass.Lint.run
    {
      Lint.default_config with
      modes = Some modes;
      subjects = Some subjects;
      assets = Some assets;
    }
    db

let reported findings ~mode ~subject ~asset ~op =
  List.exists
    (fun (d : Diagnostic.t) ->
      d.mode = Some mode && d.subject = Some subject && d.asset = Some asset
      && d.op = Some op)
    findings

let test_coverage_analysis () =
  let db =
    compile_ok
      "policy \"c\" version 1 { default deny; asset a { allow rw from alice; \
       } mode m1 { asset b { allow read from any; } } }"
  in
  let findings =
    coverage_findings db ~modes:[ "m1"; "m2" ]
      ~subjects:[ "alice"; "bob" ] ~assets:[ "a"; "b" ]
  in
  (* grid: 2 modes x 2 subjects x 2 assets x 2 ops = 16 cells.
     covered: asset a / alice (both ops, both modes) = 4;
              asset b / read / any subject / m1 only = 2. *)
  check Alcotest.int "gaps" 10 (List.length findings);
  List.iter
    (fun (d : Diagnostic.t) ->
      check Alcotest.bool "SP003" true (d.code = Diagnostic.Coverage_gap);
      (* no rule is message-scoped, so no cell is partial *)
      check Alcotest.bool "a whole-cell gap" true
        (String.starts_with ~prefix:"no rule decides" d.message
        && d.msg_range = None))
    findings;
  Alcotest.(check bool) "gap example: bob write a in m2" true
    (reported findings ~mode:"m2" ~subject:"bob" ~asset:"a" ~op:Ir.Write);
  Alcotest.(check bool) "not a gap: alice write a in m2" false
    (reported findings ~mode:"m2" ~subject:"alice" ~asset:"a" ~op:Ir.Write)

let test_coverage_full () =
  let db =
    compile_ok "policy \"c\" version 1 { asset a { allow rw from any; } }"
  in
  check Alcotest.int "fully covered" 0
    (List.length
       (coverage_findings db ~modes:[ "m" ] ~subjects:[ "x" ] ~assets:[ "a" ]))

let () =
  Alcotest.run "secpol_policy"
    [
      ( "lexer",
        [
          quick "basic tokens" test_lexer_basic;
          quick "numbers" test_lexer_numbers;
          quick "comments" test_lexer_comments;
          quick "strings" test_lexer_strings;
          quick "ranges" test_lexer_dotdot;
          quick "positions" test_lexer_positions;
          quick "illegal char" test_lexer_illegal_char;
        ] );
      ( "parser",
        [
          quick "sample policy" test_parse_sample;
          quick "syntax errors" test_parse_errors;
          quick "empty range" test_parse_empty_range_rejected;
          quick "parse_many" test_parse_many;
        ] );
      ( "printer",
        [
          quick "sample round trip" test_print_parse_roundtrip;
          quick "range merging" test_normalise_merges_ranges;
          quick "empty subjects" test_normalise_empty_subjects;
          QCheck_alcotest.to_alcotest prop_printer_roundtrip;
        ] );
      ( "compiler",
        [
          quick "sample" test_compile_sample;
          quick "default deny" test_compile_default_deny_when_absent;
          quick "multiple defaults" test_compile_multiple_defaults_error;
          quick "empty mode section" test_compile_empty_mode_section_error;
          quick "unknown-name warnings" test_compile_warnings;
          quick "of_source errors" test_compile_of_source_error_rendering;
        ] );
      ( "engine",
        [
          quick "allow + default" test_engine_allow_and_default;
          quick "mode scoping" test_engine_mode_scoping;
          quick "message scoping" test_engine_message_scoping;
          quick "deny overrides" test_engine_deny_overrides;
          quick "first match" test_engine_first_match;
          quick "allow overrides" test_engine_allow_overrides;
          quick "stalled engine fails closed" test_engine_stalled_fails_closed;
          quick "hot swap" test_engine_swap_db;
          quick "provenance" test_engine_matched_rule_provenance;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_default_deny_for_strangers;
          QCheck_alcotest.to_alcotest prop_strategies_agree_without_conflicts;
          QCheck_alcotest.to_alcotest prop_normalise_idempotent;
          QCheck_alcotest.to_alcotest prop_deny_overrides_monotone_in_denies;
        ] );
      ( "intervals",
        [
          quick "normalise" test_intervals_normalise;
          quick "membership" test_intervals_mem;
          quick "add + remove" test_intervals_add_remove;
          quick "validation" test_intervals_validation;
        ] );
      ( "table",
        [
          quick "constant folding" test_table_const_folding;
          quick "conditions block folding" test_table_no_folding_under_conditions;
          quick "wildcard fallback" test_table_wildcard_fallback;
          quick "swap recompiles" test_table_swap_recompiles;
          QCheck_alcotest.to_alcotest prop_compiled_equals_interpreted;
        ] );
      ( "rates",
        [
          quick "parse + print" test_rate_parses_and_prints;
          quick "validation" test_rate_rejects_bad;
          quick "sliding window" test_rate_sliding_window;
          quick "window boundary" test_rate_window_boundary;
          quick "backwards clock" test_rate_backwards_clock;
          quick "backwards-clock clamp" test_rate_window_clamp;
          QCheck_alcotest.to_alcotest prop_rate_window_model;
          quick "per subject" test_rate_per_subject;
          quick "reset on update" test_rate_reset_on_swap;
        ] );
      ( "conflicts",
        [
          quick "detected" test_conflicts_detected;
          quick "disjoint subjects/assets" test_no_conflict_on_disjoint;
          quick "message ranges" test_no_conflict_disjoint_messages;
          quick "shadowing" test_shadowed_rules;
          quick "mode overlap" test_mode_overlap_rules;
          quick "covers" test_covers;
        ] );
      ( "derive",
        [
          quick "row access" test_row_access;
          quick "blocks attack op" test_threat_to_policy_blocks_attack;
          quick "residual risk" test_threat_to_policy_residual;
          quick "model to policy" test_model_to_policy;
          quick "countermeasures compile" test_derived_countermeasures_compile;
        ] );
      ( "updates",
        [
          quick "verify + tamper" test_bundle_verify_and_tamper;
          quick "bundle_of_source" test_bundle_of_source_validates;
          quick "install + downgrade" test_store_install_and_downgrade;
          quick "tampered install" test_store_rejects_tampered;
          quick "current_db" test_current_db;
          quick "signed bundles" test_signed_bundles;
          quick "install_signed" test_install_signed;
        ] );
      ( "coverage",
        [
          quick "grid analysis" test_coverage_analysis;
          quick "full coverage + validation" test_coverage_full;
        ] );
    ]
