module Ast = Secpol_policy.Ast
module Table = Secpol_policy.Table

let subject_of_node = Names.asset_of_node

(* One allow rule per (direction, message): writers are the designed
   producers, readers the designed consumers. *)
let rules_for_message (m : Messages.t) =
  let rule op nodes =
    match nodes with
    | [] -> []
    | _ ->
        [
          {
            Ast.decision = Ast.Allow;
            op;
            subjects =
              Ast.Subjects
                (List.sort_uniq String.compare (List.map subject_of_node nodes));
            messages = Some [ Ast.single m.id ];
            rate = None;
          };
        ]
  in
  rule Ast.Write m.producers @ rule Ast.Read m.consumers

let baseline ?(version = 1) () =
  (* Group messages by mode scope, then emit one asset block per asset in
     each group. *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun (m : Messages.t) ->
      let key = List.sort compare (List.map Modes.name m.modes) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (existing @ [ m ]))
    Messages.all;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) groups [] |> List.sort compare in
  let sections =
    List.concat_map
      (fun key ->
        let msgs = Hashtbl.find groups key in
        let assets =
          List.sort_uniq String.compare (List.map (fun (m : Messages.t) -> m.asset) msgs)
        in
        let blocks =
          List.map
            (fun asset ->
              let rules =
                msgs
                |> List.filter (fun (m : Messages.t) -> m.asset = asset)
                |> List.concat_map rules_for_message
              in
              { Ast.asset; rules })
            assets
        in
        if key = [] then List.map (fun b -> Ast.Global b) blocks
        else [ Ast.Modes (key, blocks) ])
      keys
  in
  Ast.normalise
    { Ast.name = "car_baseline"; version; sections = Ast.Default Ast.Deny :: sections }

let permissive ?(version = 1) () =
  let blocks =
    List.map
      (fun asset ->
        Ast.Global
          {
            Ast.asset;
            rules =
              [
                {
                  Ast.decision = Ast.Allow;
                  op = Ast.Rw;
                  subjects = Ast.Any_subject;
                  messages = None;
                  rate = None;
                };
              ];
          })
      Names.assets
  in
  Ast.normalise
    {
      Ast.name = "car_baseline";
      version;
      sections = Ast.Default Ast.Deny :: blocks;
    }

let lock_rate = Ast.rate_limit ~count:2 ~window_ms:10_000

let add_lock_rate (r : Ast.rule) =
  let is_lock_command =
    match r.messages with
    | Some [ g ] -> g.Ast.lo = Messages.lock_command && g.Ast.hi = g.Ast.lo
    | Some _ | None -> false
  in
  if r.decision = Ast.Allow && r.op = Ast.Write && is_lock_command then
    { r with rate = Some lock_rate }
  else r

let hardened ?(version = 2) () =
  let p = baseline ~version () in
  let sections =
    List.map
      (function
        | Ast.Global b -> Ast.Global { b with rules = List.map add_lock_rate b.rules }
        | Ast.Modes (modes, blocks) ->
            Ast.Modes
              (modes,
               List.map
                 (fun (b : Ast.asset_block) ->
                   { b with rules = List.map add_lock_rate b.rules })
                 blocks)
        | Ast.Default _ as s -> s)
      p.Ast.sections
  in
  let situational =
    Ast.Modes
      ( [ Modes.name Modes.Fail_safe ],
        [
          {
            Ast.asset = Names.door_locks;
            rules =
              [
                {
                  Ast.decision = Ast.Deny;
                  op = Ast.Write;
                  subjects = Ast.Subjects [ Names.asset_connectivity ];
                  messages = Some [ Ast.single Messages.lock_command ];
                  rate = None;
                };
              ];
          };
        ] )
  in
  Ast.normalise { p with Ast.sections = sections @ [ situational ] }

let compile policy =
  Secpol_policy.Compile.compile_exn
    ~known_modes:(List.map Modes.name Modes.all)
    ~known_assets:Names.assets ~known_subjects:Names.assets policy

let engine ?strategy policy =
  Secpol_policy.Engine.create ?strategy (compile policy)

(* spoof detection: the IDs each node is the only designed producer of *)
let own_ids node =
  List.filter_map
    (fun (m : Messages.t) ->
      match m.producers with
      | [ p ] when String.equal p node -> Some m.id
      | _ -> None)
    Messages.all

let hpe_configs table mode =
  List.map2
    (fun node (_, cfg) ->
      (node, { cfg with Secpol_hpe.Config.own_ids = own_ids node }))
    Names.nodes
    (Secpol_hpe.Config.of_policy table ~mode:(Modes.name mode)
       ~subjects:(List.map Names.asset_of_node Names.nodes)
       ~bindings:Messages.bindings)

(* ---------- the image: one derivation per policy ---------- *)

type image = {
  policy : Ast.policy;  (* the key, compared physically *)
  db : Secpol_policy.Ir.db;
  table : Table.t;
  configs : (string * Secpol_hpe.Config.t) list Atomic.t array;
      (* one slot per mode, published on first read; [[]] until then, as
         every mode's configs list every node *)
}

let mode_slot = function
  | Modes.Normal -> 0
  | Modes.Remote_diagnostic -> 1
  | Modes.Fail_safe -> 2

(* the image of the last policy built *)
let last = Atomic.make None

let image policy =
  match Atomic.get last with
  | Some i when i.policy == policy -> i
  | Some _ | None ->
      let db = compile policy in
      let i =
        {
          policy;
          db;
          table = Table.compile ~strategy:Table.Deny_overrides db;
          configs =
            Array.init (List.length Modes.all) (fun _ -> Atomic.make []);
        }
      in
      Atomic.set last (Some i);
      i

let db i = i.db

let table i = i.table

(* two domains that both find a slot empty derive equal lists, and
   either may publish *)
let configs i mode =
  let slot = i.configs.(mode_slot mode) in
  match Atomic.get slot with
  | _ :: _ as c -> c
  | [] ->
      let c = hpe_configs i.table mode in
      Atomic.set slot c;
      c
