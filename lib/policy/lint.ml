type config = {
  strategy : Engine.strategy;
  modes : string list option;
  subjects : string list option;
  assets : string list option;
}

let default_config =
  { strategy = Engine.Deny_overrides; modes = None; subjects = None; assets = None }

type pass = {
  name : string;
  short : string;
  run : config -> Ir.db -> Diagnostic.t list;
}

let pass ~name ~short run = { name; short; run }

(* ---------- built-in passes ---------- *)

let conflict_pass =
  pass ~name:"conflict"
    ~short:"overlapping rules with opposite decisions (SP001)"
    (fun _cfg db ->
      List.map
        (fun (c : Conflict.conflict) ->
          Diagnostic.make Diagnostic.Conflict c.reason
            ~rules:[ c.rule_a.Ir.idx; c.rule_b.Ir.idx ]
            ~asset:c.rule_a.Ir.asset)
        (Conflict.conflicts db))

let shadow_pass =
  pass ~name:"shadow"
    ~short:"rules covered by an earlier same-decision rule (SP002)"
    (fun _cfg db ->
      List.map
        (fun ((winner : Ir.rule), (dead : Ir.rule)) ->
          Diagnostic.make Diagnostic.Shadowed
            (Printf.sprintf
               "rule #%d is redundant: rule #%d precedes it and covers its \
                entire scope with the same decision (%s)"
               dead.idx winner.idx
               (Ast.decision_name dead.decision))
            ~rules:[ winner.idx; dead.idx ]
            ~asset:dead.asset)
        (Conflict.shadowed db))

let coverage_pass =
  pass ~name:"coverage"
    ~short:"access cells falling silently to the default (SP003)"
    (fun cfg db ->
      let modes =
        match cfg.modes with
        | Some (_ :: _ as l) -> l
        | Some [] | None -> (
            match
              List.concat_map
                (fun (r : Ir.rule) -> Option.value ~default:[] r.modes)
                db.Ir.rules
              |> List.sort_uniq String.compare
            with
            | [] -> [ "(any)" ]
            | l -> l)
      in
      let subjects =
        match cfg.subjects with Some l -> l | None -> Ir.subjects db
      in
      let assets =
        match cfg.assets with Some l -> l | None -> Ir.assets db
      in
      (* a gap under default deny fails safe; under default allow it is an
         unreviewed permission *)
      let severity =
        match db.Ir.default with
        | Ast.Deny -> Diagnostic.Info
        | Ast.Allow -> Diagnostic.Warning
      in
      let dflt = Ast.decision_name db.Ir.default in
      let partition = Verify.partition ~strategy:cfg.strategy db in
      (* the message region the rules decide in a cell: everything but
         the default region of the cell's verifier partition *)
      let decided c =
        List.fold_left
          (fun acc (s : Verify.segment) ->
            if s.rule = None then Region.diff acc s.region else acc)
          Region.full (partition c)
      in
      let gaps, partial =
        Verify.cells { Verify.modes; subjects; assets }
        |> List.map (fun c -> (c, decided c))
        |> List.filter (fun (_, r) -> not (Region.equal r Region.full))
        |> List.partition (fun (_, r) -> Region.is_empty r)
      in
      List.map
        (fun ((c : Verify.cell), _) ->
          Diagnostic.make Diagnostic.Coverage_gap ~severity
            (Printf.sprintf
               "no rule decides %s %s on %s in mode %s; the request falls to \
                default %s"
               c.subject (Ir.op_name c.op) c.asset c.mode dflt)
            ~asset:c.asset ~subject:c.subject ~mode:c.mode ~op:c.op)
        gaps
      @ List.map
          (fun ((c : Verify.cell), region) ->
            Diagnostic.make Diagnostic.Coverage_gap ~severity
              (Printf.sprintf
                 "%s %s on %s in mode %s is decided only for messages %s; \
                  other ids fall to default %s"
                 c.subject (Ir.op_name c.op) c.asset c.mode
                 (String.concat ","
                    (List.map Ir.range_text (Region.to_ranges region)))
                 dflt)
              ~asset:c.asset ~subject:c.subject ~mode:c.mode ~op:c.op
              ?msg_range:(Region.span region))
          partial)

let unreachable_pass =
  pass ~name:"unreachable"
    ~short:"rules no request can trigger under the strategy (SP004)"
    (fun cfg db ->
      let rules = db.Ir.rules in
      let diag ~(dead : Ir.rule) ~(coverer : Ir.rule) why =
        Diagnostic.make Diagnostic.Unreachable_rule
          (Printf.sprintf "rule #%d (%s on %s) can never take effect: %s"
             dead.idx
             (Ast.decision_name dead.decision)
             dead.asset why)
          ~rules:[ coverer.idx; dead.idx ]
          ~asset:dead.asset
      in
      match cfg.strategy with
      | Engine.Deny_overrides ->
          List.filter_map
            (fun (a : Ir.rule) ->
              if a.decision <> Ast.Allow then None
              else
                List.find_opt
                  (fun (d : Ir.rule) ->
                    d.decision = Ast.Deny && Conflict.covers d a)
                  rules
                |> Option.map (fun (d : Ir.rule) ->
                       diag ~dead:a ~coverer:d
                         (Printf.sprintf
                            "deny rule #%d covers its scope and deny \
                             overrides allow"
                            d.idx)))
            rules
      | Engine.Allow_overrides ->
          List.filter_map
            (fun (d : Ir.rule) ->
              if d.decision <> Ast.Deny then None
              else
                List.find_opt
                  (fun (a : Ir.rule) ->
                    a.decision = Ast.Allow && Conflict.covers a d)
                  rules
                |> Option.map (fun (a : Ir.rule) ->
                       diag ~dead:d ~coverer:a
                         (Printf.sprintf
                            "unlimited allow rule #%d covers its scope and \
                             allow overrides deny"
                            a.idx)))
            rules
      | Engine.First_match ->
          (* same-decision cover is SP002; here an earlier opposite-decision
             rule always wins the race *)
          List.filter_map
            (fun (later : Ir.rule) ->
              List.find_opt
                (fun (earlier : Ir.rule) ->
                  earlier.idx < later.idx
                  && earlier.decision <> later.decision
                  && Conflict.covers earlier later)
                rules
              |> Option.map (fun (earlier : Ir.rule) ->
                     diag ~dead:later ~coverer:earlier
                       (Printf.sprintf
                          "rule #%d precedes it, covers its scope and \
                           decides %s first"
                          earlier.idx
                          (Ast.decision_name earlier.decision))))
            rules)

let mode_pass =
  pass ~name:"modes"
    ~short:"rules naming modes outside the declared universe (SP005)"
    (fun cfg db ->
      match cfg.modes with
      | None -> []
      | Some universe ->
          List.concat_map
            (fun (r : Ir.rule) ->
              match r.modes with
              | None -> []
              | Some l ->
                  List.filter_map
                    (fun m ->
                      if List.mem m universe then None
                      else
                        Some
                          (Diagnostic.make Diagnostic.Mode_unknown
                             (Printf.sprintf
                                "rule #%d names unknown mode %S and can \
                                 never match in it (declared modes: %s)"
                                r.idx m
                                (String.concat ", " universe))
                             ~rules:[ r.idx ] ~asset:r.asset ~mode:m))
                    l)
            db.Ir.rules)

let rate_pass =
  pass ~name:"rates" ~short:"rate-limit sanity (SP006, SP007)"
    (fun _cfg db ->
      let rules = db.Ir.rules in
      List.concat_map
        (fun (r : Ir.rule) ->
          match (r.decision, r.rate) with
          | _, None -> []
          | Ast.Deny, Some _ ->
              [
                Diagnostic.make Diagnostic.Rate_deny
                  (Printf.sprintf
                     "deny rule #%d carries a rate limit; a deny must be \
                      unconditional"
                     r.idx)
                  ~rules:[ r.idx ] ~asset:r.asset;
              ]
          | Ast.Allow, Some rate -> (
              match
                List.find_opt
                  (fun (a : Ir.rule) ->
                    a.idx <> r.idx && a.decision = Ast.Allow
                    && Conflict.covers a r)
                  rules
              with
              | None -> []
              | Some a ->
                  [
                    Diagnostic.make Diagnostic.Rate_ineffective
                      (Printf.sprintf
                         "rate limit %d per %dms on rule #%d never binds: \
                          unlimited allow rule #%d covers the same scope"
                         rate.Ast.count rate.Ast.window_ms r.idx a.idx)
                      ~rules:[ a.idx; r.idx ] ~asset:r.asset;
                  ]))
        rules)

let builtin =
  [ conflict_pass; shadow_pass; coverage_pass; unreachable_pass; mode_pass; rate_pass ]

(* ---------- running ---------- *)

let run ?(passes = builtin) config db =
  List.concat_map (fun p -> p.run config db) passes
  |> List.sort_uniq Diagnostic.compare

let report_to_json (db : Ir.db) diagnostics =
  Json.Obj
    [
      ("policy", Json.String db.name);
      ("version", Json.Int db.version);
      ("default", Json.String (Ast.decision_name db.default));
      ("rules", Json.Int (List.length db.rules));
      ("diagnostics", Json.List (List.map Diagnostic.to_json diagnostics));
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Int (Diagnostic.count Diagnostic.Error diagnostics));
            ( "warnings",
              Json.Int (Diagnostic.count Diagnostic.Warning diagnostics) );
            ("infos", Json.Int (Diagnostic.count Diagnostic.Info diagnostics));
          ] );
    ]

let pp_report ppf ((db : Ir.db), diagnostics) =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) diagnostics;
  Format.fprintf ppf "%s v%d: %d rules, %d error(s), %d warning(s), %d info@."
    db.name db.version (List.length db.rules)
    (Diagnostic.count Diagnostic.Error diagnostics)
    (Diagnostic.count Diagnostic.Warning diagnostics)
    (Diagnostic.count Diagnostic.Info diagnostics)
