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

(* ---------- the rule-pair relation ---------- *)

(* Asset first: two rules on different assets hold cells in disjoint
   ranges of the order, so [Cells.disjoint] settles them at once. *)
module Cells = Set.Make (struct
  type t = Verify.cell

  let compare (a : t) (b : t) =
    match String.compare a.asset b.asset with 0 -> compare a b | c -> c
end)

(* SP001, SP002, SP004 and SP007 compare rules by their {!Verify.scope}:
   the cells of the policy's universe a rule applies to, times its
   message region.  Two rules overlap when they share a cell and their
   regions meet; [a] covers [b] when [a] is unrated (a rated rule stops
   matching once its budget is spent) and [b]'s cells and region lie
   inside [a]'s. *)
let relation (db : Ir.db) =
  let scope = Verify.scope db in
  let scopes = Hashtbl.create 16 in
  List.iter
    (fun (r : Ir.rule) ->
      let cells, region = scope r in
      Hashtbl.replace scopes r.idx (Cells.of_list cells, region))
    db.rules;
  let scope (r : Ir.rule) = Hashtbl.find scopes r.idx in
  let overlap a b =
    let ca, ra = scope a and cb, rb = scope b in
    (not (Region.is_empty (Region.inter ra rb))) && not (Cells.disjoint ca cb)
  and covers (a : Ir.rule) b =
    let ca, ra = scope a and cb, rb = scope b in
    a.rate = None && Region.subset rb ra && Cells.subset cb ca
  in
  (overlap, covers)

(* Every (earlier, later) pair of rules in source order. *)
let pairs (db : Ir.db) =
  List.concat_map
    (fun (a : Ir.rule) ->
      List.filter_map
        (fun (b : Ir.rule) -> if a.idx < b.idx then Some (a, b) else None)
        db.rules)
    db.rules

(* ---------- built-in passes ---------- *)

let conflict_pass =
  pass ~name:"conflict"
    ~short:"overlapping rules with opposite decisions (SP001)"
    (fun _cfg db ->
      let overlap, _ = relation db in
      List.filter_map
        (fun ((a : Ir.rule), (b : Ir.rule)) ->
          if a.decision = b.decision || not (overlap a b) then None
          else
            Some
              (Diagnostic.make Diagnostic.Conflict
                 (Printf.sprintf
                    "rules #%d (%s) and #%d (%s) overlap on asset %s with \
                     opposite decisions"
                    a.idx
                    (Ast.decision_name a.decision)
                    b.idx
                    (Ast.decision_name b.decision)
                    a.asset)
                 ~rules:[ a.idx; b.idx ] ~asset:a.asset))
        (pairs db))

let shadow_pass =
  pass ~name:"shadow"
    ~short:"rules covered by an earlier same-decision rule (SP002)"
    (fun _cfg db ->
      let _, covers = relation db in
      List.filter_map
        (fun ((winner : Ir.rule), (dead : Ir.rule)) ->
          if winner.decision <> dead.decision || not (covers winner dead) then
            None
          else
            Some
              (Diagnostic.make Diagnostic.Shadowed
                 (Printf.sprintf
                    "rule #%d is redundant: rule #%d precedes it and covers \
                     its entire scope with the same decision (%s)"
                    dead.idx winner.idx
                    (Ast.decision_name dead.decision))
                 ~rules:[ winner.idx; dead.idx ] ~asset:dead.asset))
        (pairs db))

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
      let _, covers = relation db in
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
                    d.decision = Ast.Deny && covers d a)
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
                    a.decision = Ast.Allow && covers a d)
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
                  && covers earlier later)
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
    (fun cfg db ->
      let rules = db.Ir.rules in
      let relation = lazy (relation db) (* only a rated rule needs it *) in
      let overlap a b = fst (Lazy.force relation) a b
      and covers a b = snd (Lazy.force relation) a b in
      (* a spent rated rule falls through to the rules after it; under
         first-match a deny between it and a later coverer that overlaps
         it is reached first, and then the rate binds *)
      let falls_to (a : Ir.rule) (r : Ir.rule) =
        cfg.strategy <> Engine.First_match
        || a.idx < r.idx
        || not
             (List.exists
                (fun (d : Ir.rule) ->
                  d.decision = Ast.Deny && r.idx < d.idx && d.idx < a.idx
                  && overlap d r)
                rules)
      in
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
                    a.idx <> r.idx && a.decision = Ast.Allow && covers a r
                    && falls_to a r)
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
