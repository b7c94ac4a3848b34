type t = {
  db : Ir.db;
  strategy : Table.strategy;
  by_asset : (string, Ir.rule list) Hashtbl.t;
  budgets : (int * string, Rate_window.t) Hashtbl.t;
}

let create ?(strategy = Table.Deny_overrides) (db : Ir.db) =
  let by_asset = Hashtbl.create 32 in
  (* keep source order within each asset bucket: cons (O(1)) while
     scanning, then reverse each bucket once — appending with [@] here is
     quadratic in rules per asset *)
  List.iter
    (fun (r : Ir.rule) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_asset r.asset)
      in
      Hashtbl.replace by_asset r.asset (r :: existing))
    db.rules;
  Hashtbl.filter_map_inplace (fun _ rules -> Some (List.rev rules)) by_asset;
  { db; strategy; by_asset; budgets = Hashtbl.create 8 }

let decide ?(now = 0.0) t (req : Ir.request) =
  let matching =
    List.filter
      (fun r -> Ir.rule_matches r req)
      (Option.value ~default:[] (Hashtbl.find_opt t.by_asset req.asset))
  in
  let subject = req.subject in
  let admit r = Rate_window.admit_rule t.budgets r subject ~now in
  let is_deny (r : Ir.rule) = r.decision = Ast.Deny in
  (* the first allow rule whose budget (if any) admits the request *)
  let take_allow rules =
    List.find_opt
      (fun (r : Ir.rule) -> r.decision = Ast.Allow && admit r)
      rules
  in
  match t.strategy with
  | First_match ->
      (* scan in source order; an exhausted allow rule is skipped *)
      let rec scan = function
        | [] -> (t.db.default, None)
        | (r : Ir.rule) :: rest -> (
            match r.decision with
            | Ast.Deny -> (Ast.Deny, Some r)
            | Ast.Allow ->
                if admit r then (Ast.Allow, Some r)
                else scan rest)
      in
      scan matching
  | Deny_overrides -> (
      match List.find_opt is_deny matching with
      | Some r -> (Ast.Deny, Some r)
      | None -> (
          match take_allow matching with
          | Some r -> (Ast.Allow, Some r)
          | None -> (t.db.default, None)))
  | Allow_overrides -> (
      match take_allow matching with
      | Some r -> (Ast.Allow, Some r)
      | None -> (
          match List.find_opt is_deny matching with
          | Some r -> (Ast.Deny, Some r)
          | None -> (t.db.default, None)))
