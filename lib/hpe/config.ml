module Policy = Secpol_policy

type binding = { msg_id : int; asset : string }

type t = {
  read_ids : int list;
  write_ids : int list;
  budgets : Registers.budgets;
  own_ids : int list;
}

let make ?(budgets = Registers.no_budgets) ?(own_ids = []) ~read_ids
    ~write_ids () =
  { read_ids; write_ids; budgets; own_ids }

(* The bindings grouped by asset, so every (subject, asset, op) bucket is
   dispatched once however many message IDs the asset carries. *)
let by_asset bindings =
  List.fold_left
    (fun groups (b : binding) ->
      match List.find_opt (fun (a, _) -> String.equal a b.asset) groups with
      | Some (_, ids) ->
          ids := b.msg_id :: !ids;
          groups
      | None -> (b.asset, ref [ b.msg_id ]) :: groups)
    [] bindings

(* an ID is approved when a fresh budget allows it; a rated one keeps its
   first answer as its chain, its rules numbered by [slot] *)
let add slot approved chains id (a : Policy.Table.resolved) =
  let rated = Array.length a.rated > 0 in
  if rated || a.otherwise = Policy.Ast.Allow then approved := id :: !approved;
  if rated && not (List.mem_assoc id !chains) then
    chains := (id, { a with rated = Array.map slot a.rated }) :: !chains

let of_policy table ~mode ~subjects ~bindings =
  if Policy.Table.strategy table <> Policy.Table.Deny_overrides then
    invalid_arg "Config.of_policy: the HPE lists model Deny_overrides";
  let groups =
    List.rev_map (fun (a, ids) -> (a, List.rev !ids)) (by_asset bindings)
  in
  let by_id l =
    Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)
  in
  List.map
    (fun subject ->
      (* a rated rule's slot is its place in order of first use *)
      let rules = ref [||] in
      let slot (r : Policy.Ir.rule) =
        match
          Array.find_index (fun (q : Policy.Ir.rule) -> q.idx = r.idx) !rules
        with
        | Some i -> i
        | None ->
            rules := Array.append !rules [| r |];
            Array.length !rules - 1
      in
      let read_ids = ref [] and write_ids = ref [] in
      let reads = ref [] and writes = ref [] in
      List.iter
        (fun (asset, ids) ->
          let read =
            Policy.Table.resolver table ~mode ~subject ~asset Policy.Ir.Read
          and write =
            Policy.Table.resolver table ~mode ~subject ~asset Policy.Ir.Write
          in
          List.iter
            (fun id ->
              add slot read_ids reads id (read id);
              add slot write_ids writes id (write id))
            ids)
        groups;
      let slots =
        Array.map (fun (r : Policy.Ir.rule) -> Option.get r.rate) !rules
      in
      ( subject,
        {
          read_ids = List.sort_uniq compare !read_ids;
          write_ids = List.sort_uniq compare !write_ids;
          budgets =
            (if Array.length slots = 0 then Registers.no_budgets
             else { slots; reads = by_id !reads; writes = by_id !writes });
          own_ids = [];
        } ))
    subjects

let provision regs config ?(enable_read = true) ?(enable_write = true)
    ?(lock = true) () =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec load addr = function
    | [] -> Ok ()
    | id :: rest ->
        let* () = Registers.write_reg regs ~addr id in
        load addr rest
  in
  let* () = Registers.write_reg regs ~addr:Registers.cmd_clear 0 in
  let* () = load Registers.cmd_add_read config.read_ids in
  let* () = load Registers.cmd_add_write config.write_ids in
  let* () = Registers.load_budgets regs config.budgets in
  let ctrl_value =
    Bool.to_int enable_read
    lor (Bool.to_int enable_write lsl 1)
    lor (Bool.to_int lock lsl 2)
  in
  Registers.write_reg regs ~addr:Registers.ctrl ctrl_value

let pp ppf t =
  let hex ids = String.concat "," (List.map (Printf.sprintf "0x%x") ids) in
  let list f a = String.concat "," (Array.to_list (Array.mapi f a)) in
  Format.fprintf ppf "read:{%s} write:{%s}" (hex t.read_ids) (hex t.write_ids);
  let b = t.budgets and dir d = Array.map (fun c -> (d, c)) in
  if Array.length b.slots > 0 then
    Format.fprintf ppf " budgets:{%s} chains:{%s}"
      (list
         (fun i (r : Policy.Ast.rate) ->
           Printf.sprintf "#%d:%d/%dms" i r.count r.window_ms)
         b.slots)
      (list
         (fun _ (d, (id, (c : Registers.chain))) ->
           Printf.sprintf "%s 0x%x:[%s] else %s" d id
             (list (fun _ -> Printf.sprintf "#%d") c.rated)
             (Policy.Ast.decision_name c.otherwise))
         (Array.append (dir "read" b.reads) (dir "write" b.writes)))
