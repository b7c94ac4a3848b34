module Policy = Secpol_policy
module Hpe_config = Secpol_hpe.Config
module Lint = Policy.Lint
module Diagnostic = Policy.Diagnostic

let hpe_consistency ?(bindings = Messages.bindings)
    ?(modes = List.map Modes.name Modes.all) ?(subjects = Names.assets) () =
  Lint.pass ~name:"hpe-consistency"
    ~short:"HPE approved lists agree with the software engine (SP008)"
    (fun cfg db ->
      let request ~mode ~subject op (b : Hpe_config.binding) =
        {
          Policy.Ir.mode;
          subject;
          asset = b.asset;
          op;
          msg_id = Some b.msg_id;
        }
      in
      (* a fresh engine per request: budgets of rate-limited rules must not
         leak between probe requests *)
      let software_allows req =
        Policy.Engine.permitted
          (Policy.Engine.create ~strategy:cfg.Lint.strategy db)
          req
      in
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun subject ->
              let hpe =
                Hpe_config.of_policy (Policy.Engine.create db) ~mode ~subject
                  ~bindings
              in
              List.concat_map
                (fun (b : Hpe_config.binding) ->
                  List.filter_map
                    (fun op ->
                      let approved =
                        match op with
                        | Policy.Ir.Read -> hpe.Hpe_config.read_ids
                        | Policy.Ir.Write -> hpe.Hpe_config.write_ids
                      in
                      let hardware = List.mem b.msg_id approved in
                      let software =
                        software_allows (request ~mode ~subject op b)
                      in
                      if hardware = software then None
                      else
                        Some
                          (Diagnostic.make Diagnostic.Hpe_mismatch
                             (Printf.sprintf
                                "HPE %s list for subject %s in mode %s %s id \
                                 0x%x (asset %s) but the software engine \
                                 decides %s"
                                (Policy.Ir.op_name op) subject mode
                                (if hardware then "grants" else "blocks")
                                b.msg_id b.asset
                                (if software then "allow" else "deny"))
                             ~asset:b.asset ~subject ~mode ~op
                             ~msg_range:(b.msg_id, b.msg_id)))
                    [ Policy.Ir.Read; Policy.Ir.Write ])
                bindings)
            subjects)
        modes)

let threat_traceability ?(rows = Threat_catalog.rows) () =
  Lint.pass ~name:"threat-traceability"
    ~short:"every Table-I countermeasure maps to >=1 rule (SP009)"
    (fun _cfg db ->
      let modes_overlap (r : Policy.Ir.rule) threat_modes =
        match (r.modes, threat_modes) with
        | None, _ | _, [] -> true
        | Some rule_modes, _ ->
            List.exists (fun m -> List.mem m rule_modes) threat_modes
      in
      List.filter_map
        (fun (row : Threat_catalog.row) ->
          let t = row.threat in
          let traced =
            List.exists
              (fun (r : Policy.Ir.rule) ->
                r.asset = t.Secpol_threat.Threat.asset
                && modes_overlap r t.Secpol_threat.Threat.modes)
              db.Policy.Ir.rules
          in
          if traced then None
          else
            Some
              (Diagnostic.make Diagnostic.Threat_untraced
                 (Printf.sprintf
                    "threat %s (%S) has no countermeasure rule: no rule \
                     touches asset %s in modes %s"
                    t.Secpol_threat.Threat.id t.Secpol_threat.Threat.title
                    t.Secpol_threat.Threat.asset
                    (String.concat "," t.Secpol_threat.Threat.modes))
                 ~asset:t.Secpol_threat.Threat.asset))
        rows)

let passes () = [ hpe_consistency (); threat_traceability () ]
