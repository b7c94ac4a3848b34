module Policy = Secpol_policy

type binding = { msg_id : int; asset : string }

type t = {
  read_ids : int list;
  write_ids : int list;
  write_rates : (int * Policy.Ast.rate) list;
  own_ids : int list;
}

let make ?(write_rates = []) ?(own_ids = []) ~read_ids ~write_ids () =
  { read_ids; write_ids; write_rates; own_ids }

(* The strictest (smallest-budget) rate among the allow-write rules that
   match this binding; None when some matching allow rule is unlimited. *)
let write_rate_for db request =
  let matching =
    List.filter
      (fun (r : Policy.Ir.rule) ->
        r.decision = Policy.Ast.Allow && Policy.Ir.rule_matches r request)
      db.Policy.Ir.rules
  in
  if List.exists (fun (r : Policy.Ir.rule) -> r.rate = None) matching then None
  else
    List.fold_left
      (fun acc (r : Policy.Ir.rule) ->
        match (acc, r.rate) with
        | None, rate -> rate
        | Some a, Some b ->
            let per_sec (x : Policy.Ast.rate) =
              float_of_int x.count /. float_of_int x.window_ms
            in
            Some (if per_sec b < per_sec a then b else a)
        | Some _, None -> acc)
      None matching

let of_policy engine ~mode ~subject ~bindings =
  let request op (b : binding) =
    {
      Policy.Ir.mode;
      subject;
      asset = b.asset;
      op;
      msg_id = Some b.msg_id;
    }
  in
  (* rate budgets must not be consumed during compilation: query a
     private Deny_overrides engine (the composition the hardware lists
     model, SP008) rather than the live one.  When the live engine already
     decides over a Deny_overrides table, the private engine shares that
     frozen table instead of compiling its own copy; only its rate
     budgets are fresh. *)
  let db = Policy.Engine.db engine in
  let static_engine =
    match Policy.Engine.strategy engine with
    | Policy.Engine.Deny_overrides ->
        Policy.Engine.of_table (Policy.Engine.table engine) db
    | Allow_overrides | First_match -> Policy.Engine.create db
  in
  let allowed op b = Policy.Engine.permitted static_engine (request op b) in
  let read_ids =
    List.filter_map
      (fun b -> if allowed Policy.Ir.Read b then Some b.msg_id else None)
      bindings
  in
  let writable =
    List.filter (fun b -> allowed Policy.Ir.Write b) bindings
  in
  let write_rates =
    List.filter_map
      (fun b ->
        match write_rate_for db (request Policy.Ir.Write b) with
        | Some rate -> Some (b.msg_id, rate)
        | None -> None)
      writable
  in
  {
    read_ids = List.sort_uniq compare read_ids;
    write_ids = List.sort_uniq compare (List.map (fun b -> b.msg_id) writable);
    write_rates = List.sort_uniq compare write_rates;
    own_ids = [];
  }

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
  let ctrl_value =
    Bool.to_int enable_read
    lor (Bool.to_int enable_write lsl 1)
    lor (Bool.to_int lock lsl 2)
  in
  Registers.write_reg regs ~addr:Registers.ctrl ctrl_value

let pp ppf t =
  let hex ids = String.concat "," (List.map (Printf.sprintf "0x%x") ids) in
  Format.fprintf ppf "read:{%s} write:{%s}" (hex t.read_ids) (hex t.write_ids);
  match t.write_rates with
  | [] -> ()
  | rates ->
      Format.fprintf ppf " rates:{%s}"
        (String.concat ","
           (List.map
              (fun (id, (r : Policy.Ast.rate)) ->
                Printf.sprintf "0x%x:%d/%dms" id r.count r.window_ms)
              rates))
