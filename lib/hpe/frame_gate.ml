module Identifier = Secpol_can.Identifier
module Registry = Secpol_obs.Registry
module Counter = Secpol_obs.Counter

type dir = Rx | Tx

type event = { time : float; node : string; dir : dir; id : Identifier.t }

type verdict = Grant | Block | Rate_block

type stats = { granted : int; blocked : int; rate_blocked : int }

type result = {
  verdicts : verdict array;
  registry : Registry.t;
  stats : stats;
}

(* One node's gate: its approved lists and write budgets. *)
type gate = {
  read : Approved_list.t;
  write : Approved_list.t;
  own : Approved_list.t;
  limiter : Rate_limiter.t;
}

let gate_of_config (c : Config.t) =
  let list_of ids = Approved_list.of_ids (List.map Identifier.standard ids) in
  let limiter = Rate_limiter.create () in
  List.iter
    (fun (msg_id, rate) -> Rate_limiter.set limiter ~msg_id rate)
    c.write_rates;
  {
    read = list_of c.read_ids;
    write = list_of c.write_ids;
    own = list_of c.own_ids;
    limiter;
  }

let gate_event gates registry (e : event) =
  match Hashtbl.find_opt gates e.node with
  | None ->
      (* unprotected ECU: pass-through, but make the gap visible *)
      Counter.incr (Registry.counter registry "hpe.gate.unguarded");
      Grant
  | Some gate -> (
      match e.dir with
      | Tx ->
          if not (Approved_list.mem gate.write e.id) then (
            Counter.incr (Registry.counter registry "hpe.gate.tx_blocked");
            Block)
          else if
            Rate_limiter.admit gate.limiter ~now:e.time
              ~msg_id:(Identifier.raw e.id)
          then (
            Counter.incr (Registry.counter registry "hpe.gate.granted");
            Grant)
          else (
            Counter.incr (Registry.counter registry "hpe.gate.rate_blocked");
            Rate_block)
      | Rx ->
          if Approved_list.mem gate.own e.id then (
            (* a frame carrying an ID only this node may produce *)
            Counter.incr (Registry.counter registry "hpe.gate.spoof_blocked");
            Block)
          else if Approved_list.mem gate.read e.id then (
            Counter.incr (Registry.counter registry "hpe.gate.granted");
            Grant)
          else (
            Counter.incr (Registry.counter registry "hpe.gate.rx_blocked");
            Block))

let run configs events =
  let registry = Registry.create () in
  let gates = Hashtbl.create (List.length configs) in
  List.iter
    (fun (node, config) -> Hashtbl.replace gates node (gate_of_config config))
    configs;
  let verdicts = Array.map (gate_event gates registry) events in
  let count v = Array.fold_left (fun a x -> if x = v then a + 1 else a) 0 in
  {
    verdicts;
    registry;
    stats =
      {
        granted = count Grant verdicts;
        blocked = count Block verdicts;
        rate_blocked = count Rate_block verdicts;
      };
  }
