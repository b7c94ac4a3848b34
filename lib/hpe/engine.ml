module Node = Secpol_can.Node
module Obs = Secpol_obs
module Table = Secpol_policy.Table
module Rate_window = Secpol_policy.Rate_window

(* Coarse message-id classes for per-node telemetry: the CAN identifier's
   priority page, named after the traffic that lives there in automotive
   layouts (dominant ids are safety-critical).  Classification is purely
   range-based so the HPE needs no knowledge of a concrete message map. *)
let class_names =
  [|
    "safety"; "powertrain"; "body"; "telematics"; "infotainment";
    "diagnostic"; "other"; "extended";
  |]

let class_of_id = function
  | Secpol_can.Identifier.Extended _ -> 7
  | Secpol_can.Identifier.Standard id ->
      if id < 0x100 then 0
      else if id < 0x200 then 1
      else if id < 0x300 then 2
      else if id < 0x400 then 3
      else if id < 0x500 then 4
      else if id < 0x600 then 5
      else 6

let event_names = [| "rx.accept"; "rx.drop"; "tx.accept"; "tx.drop" |]

let n_classes = Array.length class_names

type t = {
  node : Node.t;
  regs : Registers.t;
  read_block : Decision.t;
  write_block : Decision.t;
  rate_blocks : Obs.Counter.t;
  integrity_blocks : Obs.Counter.t;
  (* a 2048-bit map over the standard IDs this node alone produces *)
  own_ids : Bytes.t;
  spoof_alerts : Obs.Counter.t;
  obs : Obs.Registry.t option;
  (* event * class -> counter, created on first frame of that kind so an
     export only shows classes the node actually saw *)
  class_counters : Obs.Counter.t option array;
}

let gate_name = "hpe"

let node_name t = Node.name t.node

(* per-frame class accounting: array-indexed, no allocation after a
   (event, class) pair's first occurrence; nothing at all without obs *)
let bump_class t event id =
  match t.obs with
  | None -> ()
  | Some reg ->
      let cls = class_of_id id in
      let slot = (event * n_classes) + cls in
      let c =
        match t.class_counters.(slot) with
        | Some c -> c
        | None ->
            let c =
              Obs.Registry.counter reg
                (Printf.sprintf "hpe.%s.%s.%s" (node_name t)
                   event_names.(event) class_names.(cls))
            in
            t.class_counters.(slot) <- Some c;
            c
      in
      Obs.Counter.incr c

(* Fail closed: a register file that no longer matches its sealed
   shadow copy cannot be trusted to encode the provisioned policy, so both
   gates deny everything until re-provisioning restores it. *)
let sealed t =
  if Registers.integrity_ok t.regs then true
  else begin
    Obs.Counter.incr t.integrity_blocks;
    false
  end

(* Outside the 11-bit space nothing is an own ID. *)
let own_id t id =
  id land lnot 0x7FF = 0
  && Bytes.get_uint8 t.own_ids (id lsr 3) land (1 lsl (id land 7)) <> 0

let unrated = { Table.rated = [||]; otherwise = Secpol_policy.Ast.Allow }

(* an ID's chain by binary search over the ascending rated IDs, or
   [unrated]; top-level, so a lookup builds no closure *)
let rec chain chains id lo hi =
  if lo >= hi then unrated
  else
    let mid = (lo + hi) lsr 1 in
    let m, c = Array.unsafe_get chains mid in
    if m = id then c
    else if m < id then chain chains id (mid + 1) hi
    else chain chains id lo mid

let admit_slot windows slot ~now = Rate_window.admit windows.(slot) ~now

(* A frame its list grants must still pass its ID's chain: the one walk
   over a resolved answer, over this file's slots.  An unrated ID grants
   without touching a window; extended IDs carry no budget. *)
let[@inline] within_budget t chains ~now (frame : Secpol_can.Frame.t) =
  Array.length chains = 0
  ||
  match frame.id with
  | Secpol_can.Identifier.Extended _ -> true
  | Secpol_can.Identifier.Standard id ->
      let room =
        Table.first_with_room admit_slot
          (Registers.windows t.regs)
          (chain chains id 0 (Array.length chains))
          ~now
        = Secpol_policy.Ast.Allow
      in
      if not room then Obs.Counter.incr t.rate_blocks;
      room

let gate_rx t ~now (frame : Secpol_can.Frame.t) =
  (* impersonation detection: a frame arriving with an ID this node is
     the sole producer of cannot be genuine.  Detection, not prevention:
     the frame is flagged but filtering is still governed by the approved
     reading list. *)
  (match frame.id with
  | Secpol_can.Identifier.Standard id when own_id t id ->
      Obs.Counter.incr t.spoof_alerts
  | Secpol_can.Identifier.Standard _ | Secpol_can.Identifier.Extended _ -> ());
  let accept =
    if not (sealed t) then false
    else if not (Registers.read_filter_enabled t.regs) then true
    else if Decision.decide t.read_block frame <> Decision.Grant then false
    else within_budget t (Registers.budgets t.regs).reads ~now frame
  in
  bump_class t (if accept then 0 else 1) frame.id;
  accept

let gate_tx t ~now (frame : Secpol_can.Frame.t) =
  let accept =
    if not (sealed t) then false
    else if not (Registers.write_filter_enabled t.regs) then true
    else if Decision.decide t.write_block frame <> Decision.Grant then false
    else within_budget t (Registers.budgets t.regs).writes ~now frame
  in
  bump_class t (if accept then 2 else 3) frame.id;
  accept

let install ?obs node =
  let regs = Registers.create () in
  let read_block = Decision.create Decision.Reading (Registers.read_list regs) in
  let write_block = Decision.create Decision.Writing (Registers.write_list regs) in
  let t =
    { node; regs; read_block; write_block;
      rate_blocks = Obs.Counter.create ();
      integrity_blocks = Obs.Counter.create ();
      own_ids = Bytes.make 256 '\000';
      spoof_alerts = Obs.Counter.create (); obs;
      class_counters = Array.make (Array.length event_names * n_classes) None }
  in
  (match obs with
  | None -> ()
  | Some reg ->
      let name = Node.name node in
      let register suffix c =
        Obs.Registry.register_counter reg
          (Printf.sprintf "hpe.%s.%s" name suffix) c
      in
      let rg, rb = Decision.counters read_block in
      let wg, wb = Decision.counters write_block in
      register "read.grants" rg;
      register "read.blocks" rb;
      register "write.grants" wg;
      register "write.blocks" wb;
      register "rate_blocks" t.rate_blocks;
      register "integrity_blocks" t.integrity_blocks;
      register "spoof_alerts" t.spoof_alerts);
  let clock = Secpol_can.Bus.sim (Node.bus node) in
  Node.set_rx_gate node ~name:gate_name (fun frame ->
      gate_rx t ~now:(Secpol_sim.Engine.now clock) frame);
  Node.set_tx_gate node ~name:gate_name (fun frame ->
      gate_tx t ~now:(Secpol_sim.Engine.now clock) frame);
  t

let registers t = t.regs

let load_own_ids t (config : Config.t) =
  Bytes.fill t.own_ids 0 (Bytes.length t.own_ids) '\000';
  List.iter
    (fun id ->
      if id land lnot 0x7FF = 0 then
        let byte = id lsr 3 in
        Bytes.set_uint8 t.own_ids byte
          (Bytes.get_uint8 t.own_ids byte lor (1 lsl (id land 7))))
    config.Config.own_ids

let provision_locking ~lock t config =
  match Config.provision t.regs config ~lock () with
  | Error _ as e -> e
  | Ok () ->
      load_own_ids t config;
      Ok ()

let provision t config = provision_locking ~lock:true t config

let provision_unlocked t config = provision_locking ~lock:false t config

let locked t = Registers.locked t.regs

let read_grants t = Decision.grants t.read_block

let read_blocks t = Decision.blocks t.read_block

let write_grants t = Decision.grants t.write_block

let write_blocks t = Decision.blocks t.write_block

let rate_blocks t = Obs.Counter.value t.rate_blocks

let integrity_blocks t = Obs.Counter.value t.integrity_blocks

let integrity_ok t = Registers.integrity_ok t.regs

let spoof_alerts t = Obs.Counter.value t.spoof_alerts

let uninstall t = Node.clear_gates t.node

let pp_stats ppf t =
  Format.fprintf ppf "%s: read grant=%d block=%d; write grant=%d block=%d%s"
    (node_name t) (read_grants t) (read_blocks t) (write_grants t)
    (write_blocks t)
    (if locked t then " [locked]" else "")
