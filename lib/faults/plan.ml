module Rng = Secpol_sim.Rng
module Names = Secpol_vehicle.Names

type entry = { at : float; kind : Fault.kind }

type t = { name : string; horizon : float; entries : entry list }

type topology = { segments : string list; gateways : string list }

(* Segment-scoped faults name topology pieces a car may not have, and a
   bus-wide fault names none, so it only has a meaning on a car with one
   bus.  Callers that own a topology pass it so both are rejected at plan
   build, exactly like the horizon checks. *)
let check_topology topo kind =
  let known what names name =
    if List.mem name names then Ok ()
    else
      Error
        (Printf.sprintf "plan: %s names unknown %s %S" (Fault.label kind) what
           name)
  in
  match kind with
  | Fault.Segment_partition { segment; _ } | Fault.Segment_babble { segment; _ }
    ->
      known "segment" topo.segments segment
  | Fault.Gateway_crash { gateway; _ } -> known "gateway" topo.gateways gateway
  | (Fault.Babbling_idiot _ | Fault.Corruption_burst _)
    when List.length topo.segments > 1 ->
      Error
        (Printf.sprintf
           "plan: %s names no segment, and the car has %d; use a \
            segment-scoped fault"
           (Fault.label kind)
           (List.length topo.segments))
  | _ -> Ok ()

let segment_scoped t =
  List.exists
    (fun e ->
      match e.kind with
      | Fault.Segment_partition _ | Fault.Segment_babble _
      | Fault.Gateway_crash _ ->
          true
      | _ -> false)
    t.entries

let validate ?topology t =
  if t.horizon <= 0.0 then Error "plan: horizon must be positive"
  else
    let rec check = function
      | [] -> Ok ()
      | e :: rest -> (
          if e.at < 0.0 then Error "plan: negative injection time"
          else if e.at >= t.horizon then
            Error
              (Printf.sprintf "plan: %s injected at %.3fs, past the %.3fs horizon"
                 (Fault.label e.kind) e.at t.horizon)
          else
            match Fault.validate e.kind with
            | Error _ as err -> err
            | Ok () -> (
                match topology with
                | None -> check rest
                | Some topo -> (
                    match check_topology topo e.kind with
                    | Ok () -> check rest
                    | Error _ as err -> err)))
    in
    check t.entries

(* A plan is degrading when it is expected to end latched in Fail_safe:
   any policy stall long enough for the watchdog to notice does that.
   Everything else must recover to the never-faulted steady state. *)
let degrading t =
  List.exists
    (fun e -> match e.kind with Fault.Policy_stall _ -> true | _ -> false)
    t.entries

let sorted entries =
  List.stable_sort (fun a b -> Float.compare a.at b.at) entries

(* ---------- named plans ---------- *)

let stall ~horizon =
  {
    name = "stall";
    horizon;
    entries =
      [ { at = horizon *. 0.25; kind = Fault.Policy_stall { down_for = horizon *. 0.25 } } ];
  }

let storm ~horizon =
  {
    name = "storm";
    horizon;
    entries =
      sorted
        [
          {
            at = horizon *. 0.15;
            kind =
              Fault.Babbling_idiot
                { msg_id = 0x000; period = 0.002; duration = horizon *. 0.2 };
          };
          {
            at = horizon *. 0.45;
            kind = Fault.Corruption_burst { prob = 0.3; duration = horizon *. 0.15 };
          };
        ];
  }

let partition ~horizon =
  {
    name = "partition";
    horizon;
    entries =
      [
        {
          at = horizon *. 0.2;
          kind =
            Fault.Bus_partition
              {
                nodes = [ Names.infotainment; Names.telematics ];
                heal_after = horizon *. 0.3;
              };
        };
      ];
  }

let crash ~horizon =
  {
    name = "crash";
    horizon;
    entries =
      sorted
        [
          {
            at = horizon *. 0.2;
            kind =
              Fault.Node_crash
                { node = Names.infotainment; down_for = horizon *. 0.25 };
          };
          {
            at = horizon *. 0.35;
            kind =
              Fault.Node_crash { node = Names.door_locks; down_for = horizon *. 0.2 };
          };
        ];
  }

let hpe_corruption ~horizon =
  {
    name = "hpe-corruption";
    horizon;
    entries =
      [
        {
          at = horizon *. 0.3;
          kind =
            Fault.Hpe_corruption
              { node = Names.ev_ecu; scrub_after = horizon *. 0.25 };
        };
      ];
  }

let skewed_stall ~horizon =
  {
    name = "skewed-stall";
    horizon;
    entries =
      sorted
        [
          {
            at = horizon *. 0.1;
            kind = Fault.Clock_skew { factor = 0.5; duration = horizon *. 0.6 };
          };
          {
            at = horizon *. 0.3;
            kind = Fault.Policy_stall { down_for = horizon *. 0.25 };
          };
        ];
  }

(* ---------- segment-scoped plans (the four-segment car) ---------- *)

(* The infotainment leaf is the designated victim: it is the
   attack-surface segment the architecture exists to contain, and losing
   it must not cost the chassis or powertrain anything. *)

let segment_partition ~horizon =
  {
    name = "segment-partition";
    horizon;
    entries =
      [
        {
          at = horizon *. 0.2;
          kind =
            Fault.Segment_partition
              {
                segment = Secpol_vehicle.Segment_map.seg_infotainment;
                heal_after = horizon *. 0.3;
              };
        };
      ];
  }

let segment_babble ~horizon =
  {
    name = "segment-babble";
    horizon;
    entries =
      [
        {
          at = horizon *. 0.15;
          kind =
            (* 0.1 ms period is below the minimal frame wire time at
               500 kbit/s, so the rogue saturates arbitration on its own
               segment and gateway forwards towards it stall *)
            Fault.Segment_babble
              {
                segment = Secpol_vehicle.Segment_map.seg_infotainment;
                msg_id = 0x000;
                period = 0.0001;
                duration = horizon *. 0.45;
              };
        };
      ];
  }

let gateway_failover ~horizon =
  {
    name = "gateway-failover";
    horizon;
    entries =
      [
        {
          at = horizon *. 0.2;
          kind =
            Fault.Gateway_crash
              {
                gateway = Secpol_vehicle.Segment_map.gw_infotainment;
                down_for = horizon *. 0.25;
              };
        };
      ];
  }

let threat_trigger ?(msg_id = Secpol_vehicle.Messages.lock_command) ~at
    ~horizon () =
  if horizon <= 0.0 then
    invalid_arg "Plan.threat_trigger: horizon must be positive";
  if at < 0.0 || at >= horizon then
    invalid_arg "Plan.threat_trigger: activation outside [0, horizon)";
  {
    name = "threat-trigger";
    horizon;
    entries =
      [
        {
          at;
          kind =
            (* the forged-frame flood carrying the threat's message id;
               it stays live until the horizon *)
            Fault.Babbling_idiot
              { msg_id; period = 0.05; duration = horizon -. at };
        };
      ];
  }

let threat_window t =
  List.find_map
    (fun e ->
      match e.kind with
      | Fault.Babbling_idiot { msg_id; duration; _ } ->
          Some (e.at, Float.min t.horizon (e.at +. duration), msg_id)
      | _ -> None)
    t.entries

(* ---------- seeded generation ---------- *)

(* Recoverable faults only: generated campaigns exercise breadth, the
   degradation path is exercised by the explicit stall plans.  Windows are
   kept inside [0.1h, 0.7h] so every fault has cleared well before the
   horizon and the convergence invariant is meaningful. *)
let random_fault rng ~horizon =
  let crashable =
    (* the safety ECU stays up: crashing the component that latches
       fail-safe is a different experiment (and a different paper) *)
    [| Names.infotainment; Names.telematics; Names.door_locks; Names.eps |]
  in
  let dur lo hi = lo +. Rng.float rng (hi -. lo) in
  match Rng.int rng 5 with
  | 0 ->
      Fault.Node_crash
        { node = Rng.pick rng crashable; down_for = dur 0.05 (horizon *. 0.2) }
  | 1 ->
      Fault.Babbling_idiot
        {
          msg_id = 0x000;
          period = 0.001 +. Rng.float rng 0.004;
          duration = dur 0.05 (horizon *. 0.15);
        }
  | 2 ->
      Fault.Corruption_burst
        { prob = 0.1 +. Rng.float rng 0.4; duration = dur 0.05 (horizon *. 0.15) }
  | 3 ->
      Fault.Bus_partition
        {
          nodes = [ Rng.pick rng crashable ];
          heal_after = dur 0.05 (horizon *. 0.2);
        }
  | _ ->
      Fault.Hpe_corruption
        { node = Rng.pick rng crashable; scrub_after = dur 0.05 (horizon *. 0.2) }

let generate ?(faults = 4) ~seed ~horizon () =
  if horizon <= 0.0 then invalid_arg "Plan.generate: horizon must be positive";
  if faults < 0 then invalid_arg "Plan.generate: negative fault count";
  let rng = Rng.create seed in
  let entries =
    List.init faults (fun _ ->
        {
          at = (horizon *. 0.1) +. Rng.float rng (horizon *. 0.6);
          kind = random_fault rng ~horizon;
        })
  in
  { name = Printf.sprintf "mixed-%Ld" seed; horizon; entries = sorted entries }

let named =
  [
    "stall";
    "storm";
    "partition";
    "crash";
    "hpe-corruption";
    "skewed-stall";
    "mixed";
    "segment-partition";
    "segment-babble";
    "gateway-failover";
  ]

let of_name ?(seed = 42L) ?(horizon = 4.0) name =
  match name with
  | "stall" -> Some (stall ~horizon)
  | "storm" -> Some (storm ~horizon)
  | "partition" -> Some (partition ~horizon)
  | "crash" -> Some (crash ~horizon)
  | "hpe-corruption" -> Some (hpe_corruption ~horizon)
  | "skewed-stall" -> Some (skewed_stall ~horizon)
  | "mixed" -> Some (generate ~seed ~horizon ())
  | "segment-partition" -> Some (segment_partition ~horizon)
  | "segment-babble" -> Some (segment_babble ~horizon)
  | "gateway-failover" -> Some (gateway_failover ~horizon)
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "plan %s (horizon %.1fs, %d faults)@." t.name t.horizon
    (List.length t.entries);
  List.iter
    (fun e -> Format.fprintf ppf "  [%6.3f] %a@." e.at Fault.pp e.kind)
    t.entries
