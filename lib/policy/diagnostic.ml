type severity = Error | Warning | Info

type code =
  | Conflict
  | Shadowed
  | Coverage_gap
  | Unreachable_rule
  | Mode_unknown
  | Rate_deny
  | Rate_ineffective
  | Hpe_mismatch
  | Threat_untraced
  | Mode_mergeable
  | Region_empty
  | Allow_widened
  | Threat_unmitigated
  | Semantics_divergence

type t = {
  code : code;
  severity : severity;
  message : string;
  rules : int list;
  asset : string option;
  subject : string option;
  mode : string option;
  op : Ir.op option;
  msg_range : (int * int) option;
}

let all_codes =
  [
    Conflict; Shadowed; Coverage_gap; Unreachable_rule; Mode_unknown;
    Rate_deny; Rate_ineffective; Hpe_mismatch; Threat_untraced;
    Mode_mergeable; Region_empty; Allow_widened; Threat_unmitigated;
    Semantics_divergence;
  ]

let id = function
  | Conflict -> "SP001"
  | Shadowed -> "SP002"
  | Coverage_gap -> "SP003"
  | Unreachable_rule -> "SP004"
  | Mode_unknown -> "SP005"
  | Rate_deny -> "SP006"
  | Rate_ineffective -> "SP007"
  | Hpe_mismatch -> "SP008"
  | Threat_untraced -> "SP009"
  | Mode_mergeable -> "SP010"
  | Region_empty -> "SP011"
  | Allow_widened -> "SP012"
  | Threat_unmitigated -> "SP013"
  | Semantics_divergence -> "SP014"

let slug = function
  | Conflict -> "conflict"
  | Shadowed -> "shadowed"
  | Coverage_gap -> "coverage-gap"
  | Unreachable_rule -> "unreachable-rule"
  | Mode_unknown -> "mode-unknown"
  | Rate_deny -> "rate-deny"
  | Rate_ineffective -> "rate-ineffective"
  | Hpe_mismatch -> "hpe-mismatch"
  | Threat_untraced -> "threat-untraced"
  | Mode_mergeable -> "mode-mergeable"
  | Region_empty -> "region-empty"
  | Allow_widened -> "allow-widened"
  | Threat_unmitigated -> "threat-unmitigated"
  | Semantics_divergence -> "semantics-divergence"

let code_of_id s =
  List.find_opt (fun c -> id c = s || slug c = s) all_codes

(* A conflict, a rule that never matches because of a typo, an impossible
   rate, or hardware contradicting software are all bugs in the policy; dead
   rules and silent defaults are smells the author should review. *)
let default_severity = function
  | Conflict | Mode_unknown | Rate_deny | Hpe_mismatch | Semantics_divergence
    ->
      Error
  | Shadowed | Coverage_gap | Unreachable_rule | Rate_ineffective
  | Threat_untraced | Region_empty | Allow_widened | Threat_unmitigated ->
      Warning
  | Mode_mergeable -> Info

let explain = function
  | Conflict ->
      "Two rules overlap — some (mode, subject, asset, operation, message \
       id) request matches both — and they disagree on the decision.  The \
       outcome then depends entirely on the resolution strategy, which is \
       rarely what the author meant: make the scopes disjoint or delete \
       one rule."
  | Shadowed ->
      "A rule's entire scope is covered by an earlier rule with the same \
       decision, so it can never change any outcome.  Dead weight: delete \
       it, or narrow the earlier rule if the later one was meant to \
       differ."
  | Coverage_gap ->
      "No rule decides some (mode, subject, asset, operation) cell — or \
       decides it only for part of the message-id space — so those \
       requests fall silently to the policy default.  Under default deny \
       this fails safe (informational); under default allow it is an \
       unreviewed permission (warning)."
  | Unreachable_rule ->
      "Under the chosen resolution strategy a single other rule covers \
       this rule's whole scope and always wins (a deny over an allow \
       under deny-overrides, an unlimited allow over a deny under \
       allow-overrides, an earlier opposite rule under first-match), so \
       no request can ever trigger it."
  | Mode_unknown ->
      "The rule names a mode outside the declared mode universe.  Almost \
       always a typo: the rule silently never matches, because the \
       vehicle can never be in a mode that does not exist."
  | Rate_deny ->
      "A deny rule carries a rate limit.  A deny must be unconditional — \
       \"deny, but only so often\" would mean the request is sometimes \
       allowed by exhaustion, which inverts the intent.  The compiler \
       rejects this; the lint reports it with a location."
  | Rate_ineffective ->
      "A rate limit can never bind because an unlimited allow rule \
       covers the same scope: when the budget runs out, the request \
       falls through to the unlimited rule and is allowed anyway.  Under \
       first-match a spent request falls through in source order, so the \
       finding needs the unlimited rule to come first or no deny rule \
       overlapping the rated one to lie between them; such a deny would \
       catch the request first, and then the rate binds.  Either drop \
       the rate or narrow the unlimited rule."
  | Hpe_mismatch ->
      "The hardware policy engine's approved-id lists disagree with the \
       software engine's decision for some (binding, operation): one \
       layer grants what the other denies.  The two enforcement points \
       must agree, or the weaker one is the real policy."
  | Threat_untraced ->
      "A threat in the catalogue maps to no policy rule at all: nothing \
       in the policy even touches the threat's asset in its modes, so \
       the countermeasure the model calls for does not exist."
  | Mode_mergeable ->
      "Semantic verifier: two (or more) modes decide an asset \
       identically for every subject, operation and message id, through \
       distinct mode-scoped rules.  The rules could merge into one rule \
       naming all the modes — smaller policy, one place to update."
  | Region_empty ->
      "Semantic verifier: after strategy folding, the rule's effective \
       decision region is empty — every request it matches is decided \
       by earlier or overriding rules, possibly by several of them \
       jointly.  Strictly stronger than SP004, which only detects a \
       single covering rule."
  | Allow_widened ->
      "Update differ: the new policy version allows requests the old \
       version denied (or relaxes a rate-limited allow to an unlimited \
       one) somewhere in the decision space.  Widening may be intended, \
       but it must be reviewed — an OTA campaign should never widen \
       silently."
  | Threat_unmitigated ->
      "Threat-assertion checker: the policy allows the attack operation \
       of a catalogued threat on its asset, in a mode the threat is \
       live, for a subject the threat model does not exempt.  The \
       reported region is exactly the unmitigated attack surface."
  | Semantics_divergence ->
      "The symbolic verifier found a request on which the interpreted \
       engine and the compiled decision table disagree (or an engine \
       disagrees with the symbolic decision partition).  This is a \
       toolchain bug, never a policy bug: report it."

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let make ?severity ?(rules = []) ?asset ?subject ?mode ?op ?msg_range code
    message =
  {
    code;
    severity =
      (match severity with Some s -> s | None -> default_severity code);
    message;
    rules = List.sort_uniq Int.compare rules;
    asset;
    subject;
    mode;
    op;
    msg_range;
  }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let cmp =
    Stdlib.compare (severity_rank a.severity) (severity_rank b.severity)
  in
  if cmp <> 0 then cmp
  else
    let cmp = String.compare (id a.code) (id b.code) in
    if cmp <> 0 then cmp
    else
      let cmp = Stdlib.compare a.rules b.rules in
      if cmp <> 0 then cmp
      else
        Stdlib.compare
          (a.asset, a.subject, a.mode, a.op, a.msg_range, a.message)
          (b.asset, b.subject, b.mode, b.op, b.msg_range, b.message)

let by_code code = List.filter (fun d -> d.code = code)

let count severity l =
  List.length (List.filter (fun d -> d.severity = severity) l)

let worst = function
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun acc d ->
             if severity_rank d.severity < severity_rank acc then d.severity
             else acc)
           Info l)

let pp ppf d =
  Format.fprintf ppf "%s %s (%s): %s"
    (severity_name d.severity)
    (id d.code) (slug d.code) d.message

let to_json d =
  let opt_str key = function
    | None -> []
    | Some s -> [ (key, Json.String s) ]
  in
  Json.Obj
    ([
       ("code", Json.String (id d.code));
       ("slug", Json.String (slug d.code));
       ("severity", Json.String (severity_name d.severity));
       ("message", Json.String d.message);
       ("rules", Json.List (List.map (fun i -> Json.Int i) d.rules));
     ]
    @ opt_str "asset" d.asset
    @ opt_str "subject" d.subject
    @ opt_str "mode" d.mode
    @ opt_str "op" (Option.map Ir.op_name d.op)
    @
    match d.msg_range with
    | None -> []
    | Some (lo, hi) ->
        [ ("messages", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]) ])

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let field key conv what =
    match Option.bind (Json.member key json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "diagnostic: missing or bad %S %s" key what)
  in
  let opt_str key = Option.bind (Json.member key json) Json.to_str in
  let* code_str = field "code" Json.to_str "string" in
  let* code =
    match code_of_id code_str with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "diagnostic: unknown code %S" code_str)
  in
  let* severity_str = field "severity" Json.to_str "string" in
  let* severity =
    match severity_of_name severity_str with
    | Some s -> Ok s
    | None ->
        Error (Printf.sprintf "diagnostic: unknown severity %S" severity_str)
  in
  let* message = field "message" Json.to_str "string" in
  let* rule_items = field "rules" Json.to_list "list" in
  let* rules =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Json.to_int item with
        | Some i -> Ok (i :: acc)
        | None -> Error "diagnostic: non-integer rule index")
      (Ok []) rule_items
  in
  let* op =
    match opt_str "op" with
    | None -> Ok None
    | Some "read" -> Ok (Some Ir.Read)
    | Some "write" -> Ok (Some Ir.Write)
    | Some other -> Error (Printf.sprintf "diagnostic: unknown op %S" other)
  in
  let* msg_range =
    match Json.member "messages" json with
    | None -> Ok None
    | Some r -> (
        match
          ( Option.bind (Json.member "lo" r) Json.to_int,
            Option.bind (Json.member "hi" r) Json.to_int )
        with
        | Some lo, Some hi -> Ok (Some (lo, hi))
        | _ -> Error "diagnostic: bad messages range")
  in
  Ok
    {
      code;
      severity;
      message;
      rules = List.sort_uniq Int.compare (List.rev rules);
      asset = opt_str "asset";
      subject = opt_str "subject";
      mode = opt_str "mode";
      op;
      msg_range;
    }
