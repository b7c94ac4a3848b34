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

let window t (r : Ir.rule) rate subject =
  let key = (r.idx, subject) in
  match Hashtbl.find_opt t.budgets key with
  | Some w -> w
  | None ->
      let w = Rate_window.of_rate rate in
      Hashtbl.replace t.budgets key w;
      w

let available t ~now (r : Ir.rule) subject =
  match r.rate with
  | None -> true
  | Some rate -> Rate_window.available (window t r rate subject) ~now

let consume t ~now (r : Ir.rule) subject =
  match r.rate with
  | None -> ()
  | Some rate -> Rate_window.consume (window t r rate subject) ~now

let decide ?(now = 0.0) t (req : Ir.request) =
  let matching =
    List.filter
      (fun r -> Ir.rule_matches r req)
      (Option.value ~default:[] (Hashtbl.find_opt t.by_asset req.asset))
  in
  let subject = req.subject in
  let is_deny (r : Ir.rule) = r.decision = Ast.Deny in
  (* the first allow rule whose budget (if any) has room; consuming it *)
  let take_allow rules =
    match
      List.find_opt
        (fun (r : Ir.rule) ->
          r.decision = Ast.Allow && available t ~now r subject)
        rules
    with
    | Some r ->
        consume t ~now r subject;
        Some r
    | None -> None
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
                if available t ~now r subject then begin
                  consume t ~now r subject;
                  (Ast.Allow, Some r)
                end
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
