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

let of_policy table ~mode ~subjects ~bindings =
  if Policy.Table.strategy table <> Policy.Table.Deny_overrides then
    invalid_arg "Config.of_policy: the HPE lists model Deny_overrides";
  let groups = by_asset bindings in
  List.map
    (fun subject ->
      let read_ids = ref [] and write_ids = ref [] and write_rates = ref [] in
      List.iter
        (fun (asset, ids) ->
          let read =
            Policy.Table.static_query table ~mode ~subject ~asset
              Policy.Ir.Read
          and write =
            Policy.Table.static_query table ~mode ~subject ~asset
              Policy.Ir.Write
          in
          List.iter
            (fun id ->
              (match read id with
              | Policy.Ast.Allow, _ -> read_ids := id :: !read_ids
              | Policy.Ast.Deny, _ -> ());
              match write id with
              | Policy.Ast.Allow, rate ->
                  write_ids := id :: !write_ids;
                  Option.iter
                    (fun r -> write_rates := (id, r) :: !write_rates)
                    rate
              | Policy.Ast.Deny, _ -> ())
            !ids)
        groups;
      ( subject,
        {
          read_ids = List.sort_uniq compare !read_ids;
          write_ids = List.sort_uniq compare !write_ids;
          write_rates = List.sort_uniq compare !write_rates;
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
