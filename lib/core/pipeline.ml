module Threat = Secpol_threat
module Policy = Secpol_policy

type report = {
  model : Threat.Model.t;
  policy : Policy.Ast.policy;
  db : Policy.Ir.db;
  conflicts : Policy.Diagnostic.t list;
  shadowed : Policy.Diagnostic.t list;
  bundle : Policy.Update.bundle;
  residual : Threat.Threat.t list;
}

let derive ?(version = 1) ?(at = 0.0) model =
  let policy = Policy.Derive.model_to_policy ~version model in
  let db =
    Policy.Compile.compile_exn
      ~known_modes:model.Threat.Model.modes
      ~known_assets:(List.map (fun (a : Threat.Asset.t) -> a.id) model.assets)
      policy
  in
  let lint pass =
    Policy.Lint.run ~passes:[ pass ] Policy.Lint.default_config db
  in
  {
    model;
    policy;
    db;
    conflicts = lint Policy.Lint.conflict_pass;
    shadowed = lint Policy.Lint.shadow_pass;
    bundle = Policy.Update.bundle ~at policy;
    residual = Policy.Derive.residual_risks model;
  }

let deploy store report = Policy.Update.install store report.bundle

let respond_to_new_threat ~store ~model ~threat ~at =
  match Threat.Model.add_threat model threat with
  | Error _ as e -> e
  | Ok model ->
      let next_version =
        match
          Policy.Update.current store
            (Policy.Derive.model_to_policy model).Policy.Ast.name
        with
        | Some b -> b.Policy.Update.version + 1
        | None -> 1
      in
      let report = derive ~version:next_version ~at model in
      (match deploy store report with
      | Ok () -> Ok report
      | Error e -> Error [ e ])

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>pipeline: %s -> policy %s v%d (%d rules, default %s)@,\
     conflicts: %d, shadowed: %d, residual threats: %d@,\
     bundle %s (checksum %s...)@]"
    r.model.Threat.Model.use_case r.db.Policy.Ir.name r.db.Policy.Ir.version
    (List.length r.db.Policy.Ir.rules)
    (Policy.Ast.decision_name r.db.Policy.Ir.default)
    (List.length r.conflicts) (List.length r.shadowed)
    (List.length r.residual) r.bundle.Policy.Update.name
    (String.sub r.bundle.Policy.Update.checksum 0 8)
