type op = Read | Write

type request = {
  mode : string;
  subject : string;
  asset : string;
  op : op;
  msg_id : int option;
}

type rule = {
  idx : int;
  decision : Ast.decision;
  ops : op list;
  subjects : Ast.subjects;
  asset : string;
  modes : string list option;
  messages : Ast.msg_range list option;
  rate : Ast.rate option;
  origin : string;
}

type db = {
  name : string;
  version : int;
  default : Ast.decision;
  rules : rule list;
}

let op_of_ast = function
  | Ast.Read -> [ Read ]
  | Ast.Write -> [ Write ]
  | Ast.Rw -> [ Read; Write ]

let op_name = function Read -> "read" | Write -> "write"

(* [List.mem] on strings without polymorphic compare *)
let rec mem_name name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem_name name rest

let subject_matches subjects subject =
  match subjects with
  | Ast.Any_subject -> true
  | Ast.Subjects l -> mem_name subject l

let mode_matches modes mode =
  match modes with None -> true | Some l -> mem_name mode l

let message_matches messages msg_id =
  match messages with
  | None -> true
  | Some ranges -> (
      match msg_id with
      | None -> false
      | Some id -> List.exists (Ast.range_mem id) ranges)

module Request = struct
  (* Distinct small primes per op so (subject, asset, read) and (subject,
     asset, write) never collide structurally. *)
  let op_tag = function Read -> 17 | Write -> 29

  (* The two dispatch hashes of the compiled table, split out so the batch
     arena can pre-hash every request once at fill time: [triple_hash]
     keys the exact (subject, asset, op) dispatch, [pair_hash] the
     wildcard (asset, op) fallback for subjects the policy never names.
     Both take the names' [String.hash] values, so a caller holding many
     requests over few names hashes each name once, and every caller
     mixes them by this one formula. *)
  let triple_hash ~subject_hash ~asset_hash op =
    ((((subject_hash * 31) + asset_hash) * 31) + op_tag op) land max_int

  let pair_hash ~asset_hash op = ((asset_hash * 31) + op_tag op) land max_int
end

let rule_matches (r : rule) (req : request) =
  r.asset = req.asset
  && List.mem req.op r.ops
  && subject_matches r.subjects req.subject
  && mode_matches r.modes req.mode
  && message_matches r.messages req.msg_id

let rules_for_asset db asset = List.filter (fun r -> r.asset = asset) db.rules

let assets db =
  List.sort_uniq String.compare (List.map (fun r -> r.asset) db.rules)

let subjects db =
  db.rules
  |> List.concat_map (fun r ->
         match r.subjects with Ast.Any_subject -> [] | Ast.Subjects l -> l)
  |> List.sort_uniq String.compare

let pp_ops ppf ops =
  Format.pp_print_string ppf (String.concat "+" (List.map op_name ops))

let pp_subjects ppf = function
  | Ast.Any_subject -> Format.pp_print_string ppf "any"
  | Ast.Subjects l -> Format.pp_print_string ppf (String.concat "," l)

let range_text (g : Ast.msg_range) =
  if g.lo = g.hi then Printf.sprintf "0x%x" g.lo
  else Printf.sprintf "0x%x..0x%x" g.lo g.hi

let pp_rule ppf r =
  Format.fprintf ppf "#%d %s %a on %s from %a" r.idx
    (Ast.decision_name r.decision)
    pp_ops r.ops r.asset pp_subjects r.subjects;
  (match r.messages with
  | None -> ()
  | Some ranges ->
      Format.fprintf ppf " messages %s"
        (String.concat "," (List.map range_text ranges)));
  (match r.rate with
  | None -> ()
  | Some rate -> Format.fprintf ppf " rate %d/%dms" rate.count rate.window_ms);
  match r.modes with
  | None -> ()
  | Some modes -> Format.fprintf ppf " [modes %s]" (String.concat "," modes)

let pp_request ppf req =
  Format.fprintf ppf "%s %s %s (mode %s%s)" req.subject (op_name req.op)
    req.asset req.mode
    (match req.msg_id with
    | None -> ""
    | Some id -> Printf.sprintf ", msg 0x%x" id)

let pp_db ppf db =
  Format.fprintf ppf "policy %s v%d: default %s, %d rules@." db.name db.version
    (Ast.decision_name db.default)
    (List.length db.rules);
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_rule r) db.rules
