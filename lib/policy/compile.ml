type issue = { severity : [ `Error | `Warning ]; message : string }

let pp_issue ppf i =
  Format.fprintf ppf "%s: %s"
    (match i.severity with `Error -> "error" | `Warning -> "warning")
    i.message

let compile ?known_modes ?known_assets ?known_subjects (p : Ast.policy) =
  let p = Ast.normalise p in
  let issues = ref [] in
  let error fmt =
    Printf.ksprintf (fun m -> issues := { severity = `Error; message = m } :: !issues) fmt
  in
  let warn fmt =
    Printf.ksprintf
      (fun m -> issues := { severity = `Warning; message = m } :: !issues)
      fmt
  in
  let check_known what universe name =
    match universe with
    | Some names when not (List.exists (String.equal name) names) ->
        warn "policy %S references unknown %s %S" p.name what name
    | Some _ | None -> ()
  in
  let defaults =
    List.filter_map (function Ast.Default d -> Some d | _ -> None) p.sections
  in
  if List.length defaults > 1 then error "policy %S has multiple default sections" p.name;
  let default = match defaults with d :: _ -> d | [] -> Ast.Deny in
  let next_idx = ref 0 in
  let origin = Printf.sprintf "%s v%d" p.name p.version in
  let lower_block modes (b : Ast.asset_block) =
    check_known "asset" known_assets b.asset;
    if b.rules = [] then warn "asset block %S has no rules" b.asset;
    List.map
      (fun (r : Ast.rule) ->
        (match r.subjects with
        | Ast.Any_subject -> ()
        | Ast.Subjects subs ->
            List.iter (check_known "subject" known_subjects) subs);
        if r.decision = Ast.Deny && r.rate <> None then
          error "policy %S: a deny rule cannot carry a rate limit" p.name;
        let idx = !next_idx in
        incr next_idx;
        {
          Ir.idx;
          decision = r.decision;
          ops = Ir.op_of_ast r.op;
          subjects = r.subjects;
          asset = b.asset;
          modes;
          messages = r.messages;
          rate = r.rate;
          origin;
        })
      b.rules
  in
  let rules =
    List.concat_map
      (function
        | Ast.Default _ -> []
        | Ast.Global b -> lower_block None b
        | Ast.Modes (modes, blocks) ->
            List.iter (check_known "mode" known_modes) modes;
            if blocks = [] then error "empty mode section in policy %S" p.name;
            List.concat_map (lower_block (Some modes)) blocks)
      p.sections
  in
  let issues = List.rev !issues in
  let errors = List.filter (fun i -> i.severity = `Error) issues in
  if errors <> [] then Error issues
  else
    Ok ({ Ir.name = p.name; version = p.version; default; rules }, issues)

let compile_exn ?known_modes ?known_assets ?known_subjects p =
  match compile ?known_modes ?known_assets ?known_subjects p with
  | Ok (db, _) -> db
  | Error issues ->
      let msgs =
        List.filter_map
          (fun i -> if i.severity = `Error then Some i.message else None)
          issues
      in
      invalid_arg ("Compile.compile_exn: " ^ String.concat "; " msgs)

let of_source source =
  match Parser.parse source with
  | Error e -> Error e
  | Ok ast -> (
      match compile ast with
      | Ok (db, _) -> Ok db
      | Error issues ->
          let first =
            List.find_opt (fun i -> i.severity = `Error) issues
          in
          Error
            (match first with
            | Some i -> i.message
            | None -> "compilation failed"))
