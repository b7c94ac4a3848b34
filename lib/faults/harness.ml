module Engine = Secpol_sim.Engine
module Can = Secpol_can
module Hpe = Secpol_hpe
module Policy = Secpol_policy
module Tcar = Secpol_vehicle.Topology_car
module Segment_map = Secpol_vehicle.Segment_map
module Modes = Secpol_vehicle.Modes
module Names = Secpol_vehicle.Names
module Policy_map = Secpol_vehicle.Policy_map

type record = {
  entry : Plan.entry;
  mutable injected_at : float option;
  mutable cleared_at : float option;
  mutable region : string list;
}

type t = {
  car : Tcar.t;
  twin : unit -> Tcar.t;
  obs : Secpol_obs.Registry.t;
  clock : Clock.t;
  watchdog : Watchdog.t;
  plan : Plan.t;
  records : record list;
  base_corrupt_prob : float;
  mutable mode_changes : (float * Modes.t) list; (* newest first *)
  mutable stall_started : float option;
  mutable failsafe_entered : float option;
  mutable min_clock_factor : float;
  mutable babblers : int;
  mutable faulted : string list; (* union of regions, monotone *)
}

let sim t = Tcar.sim t.car

(* The watchdog's ping is a real decision request, not a health flag: a
   stalled engine raises [Unavailable] on [decide], which is exactly what
   a deployed monitor would observe. *)
let ping car () =
  match Tcar.policy_engine car with
  | None -> true
  | Some engine -> (
      let probe =
        {
          Policy.Ir.mode = Modes.name (Tcar.mode car);
          subject = Names.asset_of_node Names.safety;
          asset = Names.asset_safety_critical;
          op = Policy.Ir.Read;
          msg_id = None;
        }
      in
      let now = Engine.now (Tcar.sim car) in
      match Policy.Engine.decide ~now engine probe with
      | _ -> true
      | exception Policy.Engine.Unavailable -> false)

let note_mode t mode =
  t.mode_changes <- (Engine.now (sim t), mode) :: t.mode_changes

let degrade t () =
  if Tcar.mode t.car <> Modes.Fail_safe then begin
    Tcar.enter_fail_safe t.car ~reason:"policy watchdog expired";
    let now = Engine.now (sim t) in
    if t.failsafe_entered = None then t.failsafe_entered <- Some now;
    note_mode t Modes.Fail_safe
  end

(* ---------- blast regions ---------- *)

(* The segments one fault touches.  A gateway crash severs its link; the
   component with the most member nodes is the healthy core and
   everything else is cut off, so inside the blast.  A fault that names
   no segment touches them all. *)
let region_of car kind =
  let topo = Tcar.topology car in
  let segments = Can.Topology.segments topo in
  let of_nodes nodes =
    List.filter
      (fun seg -> List.exists (fun n -> Tcar.segment_of car n = Some seg) nodes)
      segments
  in
  match kind with
  | Fault.Segment_partition { segment; _ } | Fault.Segment_babble { segment; _ }
    ->
      [ segment ]
  | Fault.Gateway_crash { gateway; _ } ->
      let comps = Can.Topology.components topo ~without:[ gateway ] in
      let size comp =
        List.fold_left
          (fun acc seg -> acc + List.length (Can.Topology.members topo seg))
          0 comp
      in
      let healthy =
        List.fold_left
          (fun best comp -> if size comp > size best then comp else best)
          (List.hd comps) comps
      in
      List.concat (List.filter (fun comp -> comp != healthy) comps)
  | Fault.Node_crash { node; _ } | Fault.Hpe_corruption { node; _ } ->
      of_nodes [ node ]
  | Fault.Bus_partition { nodes; _ } -> of_nodes nodes
  | Fault.Babbling_idiot _ | Fault.Corruption_burst _ | Fault.Policy_stall _
  | Fault.Clock_skew _ ->
      segments

(* ---------- injection ---------- *)

let config_for t ~mode ~node =
  List.assoc_opt node (Tcar.hpe_configs t.car mode)

let scrub_hpe t node =
  match Tcar.hpe t.car node with
  | None -> ()
  | Some hpe -> (
      match config_for t ~mode:(Tcar.mode t.car) ~node with
      | None -> ()
      | Some config ->
          Hpe.Registers.hard_reset (Hpe.Engine.registers hpe);
          ignore (Hpe.Engine.provision hpe config))

(* The bus a bus-wide fault hits: [Plan.validate] admits those only on a
   car with one segment. *)
let lone_bus car = Tcar.bus car (List.hd (Tcar.segments car))

let inject t r =
  let engine = sim t in
  let now = Engine.now engine in
  r.injected_at <- Some now;
  r.region <- region_of t.car r.entry.Plan.kind;
  List.iter
    (fun seg ->
      if not (List.mem seg t.faulted) then t.faulted <- seg :: t.faulted)
    r.region;
  let clear f =
    Engine.schedule_in engine ~delay:(Fault.clears_after r.entry.Plan.kind)
      (fun engine ->
        f ();
        r.cleared_at <- Some (Engine.now engine))
  in
  (* a rogue station flooding one bus with top-priority frames *)
  let babble bus ~msg_id ~period ~duration =
    t.babblers <- t.babblers + 1;
    let rogue =
      Can.Node.create ~name:(Printf.sprintf "babbler%d" t.babblers) bus
    in
    let jam _ =
      ignore (Can.Node.send rogue (Can.Frame.data_std msg_id "\255"))
    in
    jam engine;
    Engine.every engine ~period ~until:(now +. duration) jam;
    clear (fun () -> Can.Node.detach rogue)
  in
  let topo = Tcar.topology t.car in
  match r.entry.Plan.kind with
  | Fault.Node_crash { node; down_for = _ } ->
      let n = Tcar.node t.car node in
      Can.Node.crash n;
      clear (fun () -> Can.Node.restart n)
  | Fault.Babbling_idiot { msg_id; period; duration } ->
      babble (lone_bus t.car) ~msg_id ~period ~duration
  | Fault.Segment_babble { segment; msg_id; period; duration } ->
      babble (Can.Topology.bus topo segment) ~msg_id ~period ~duration
  | Fault.Corruption_burst { prob; duration = _ } ->
      let bus = lone_bus t.car in
      Can.Bus.set_corrupt_prob bus prob;
      (* back to the construction-time rate, not the one seen here: an
         overlapping burst may have raised it *)
      clear (fun () -> Can.Bus.set_corrupt_prob bus t.base_corrupt_prob)
  | Fault.Bus_partition { nodes; heal_after = _ } ->
      let stations = List.map (Tcar.node t.car) nodes in
      List.iter
        (fun n ->
          (* cut off, not power-cycled: error counters survive healing *)
          Can.Node.set_down n true;
          Can.Node.detach n)
        stations;
      clear (fun () ->
          List.iter
            (fun n ->
              Can.Node.set_down n false;
              Can.Node.reattach n)
            stations)
  | Fault.Hpe_corruption { node; scrub_after = _ } ->
      (match Tcar.hpe t.car node with
      | None -> ()
      | Some hpe ->
          (* a bit flip lands straight in approved-list RAM, bypassing the
             register interface — the seal is not updated, so the file
             no longer matches it and both gates fail closed *)
          Hpe.Approved_list.add
            (Hpe.Registers.read_list (Hpe.Engine.registers hpe))
            (Can.Identifier.standard 0x7DF));
      clear (fun () -> scrub_hpe t node)
  | Fault.Policy_stall { down_for = _ } ->
      (match Tcar.policy_engine t.car with
      | None -> ()
      | Some pe ->
          Policy.Engine.set_stalled pe true;
          if t.stall_started = None then t.stall_started <- Some now);
      clear (fun () ->
          Option.iter
            (fun pe -> Policy.Engine.set_stalled pe false)
            (Tcar.policy_engine t.car))
  | Fault.Clock_skew { factor; duration = _ } ->
      let prev = Clock.factor t.clock in
      Clock.set_factor t.clock factor;
      t.min_clock_factor <- Float.min t.min_clock_factor factor;
      clear (fun () -> Clock.set_factor t.clock prev)
  | Fault.Segment_partition { segment; heal_after = _ } ->
      (* a severed medium: every transmission on the segment wire-errors,
         so gateway forwards towards it abandon, back off and shed — a
         one-sided shed storm the per-direction counters make visible *)
      let bus = Can.Topology.bus topo segment in
      let prev = Can.Bus.corrupt_prob bus in
      Can.Bus.set_corrupt_prob bus 1.0;
      clear (fun () ->
          Can.Bus.set_corrupt_prob bus prev;
          (* medium repaired: member controllers went bus-off during the
             storm of their own failed transmissions; reset them, as a
             post-repair controller re-init would *)
          List.iter
            (fun name ->
              Can.Errors.reset
                (Can.Controller.errors
                   (Can.Node.controller (Tcar.node t.car name))))
            (Can.Topology.members topo segment))
  | Fault.Gateway_crash { gateway; down_for = _ } ->
      let gw = Can.Topology.gateway topo gateway in
      Can.Gateway.disconnect gw;
      clear (fun () ->
          (* failover, fail closed: the repaired gateway comes back in
             limp-home, forwarding only the minimal safety-critical
             crossings until a maintenance action restores the full
             whitelist (never within this run) *)
          Can.Topology.restrict topo ~gateway
            ~ids:(Segment_map.minimal_crossing_ids ());
          Can.Gateway.reconnect gw)

(* ---------- construction ---------- *)

let create ?(placement = `Distributed) ?(unbounded_gateway = false) ~seed
    ~plan () =
  let spec =
    if Plan.segment_scoped plan then Segment_map.spec ()
    else Segment_map.flat_spec ()
  in
  (* "unbounded" models the deliberately-broken gateway the containment
     check must catch: admission effectively never sheds, so a saturated
     destination grows the in-flight backlog without limit *)
  let max_in_flight = if unbounded_gateway then Some 1_000_000 else None in
  (* one policy value, so the twin shares the car's image *)
  let policy = Policy_map.baseline () in
  let build ?obs () =
    Tcar.create ~seed ~placement ~policy ~spec ?obs ?max_in_flight ()
  in
  let obs = Secpol_obs.Registry.create () in
  let car = build ~obs () in
  (match
     Plan.validate
       ~topology:
         {
           Plan.segments = Tcar.segments car;
           gateways = Can.Topology.gateway_names (Tcar.topology car);
         }
       plan
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Harness.create: " ^ msg));
  if Plan.degrading plan && Tcar.policy_engine car = None then
    invalid_arg
      (Printf.sprintf
         "Harness.create: plan %s stalls the policy engine, and a car with %s \
          placement has none"
         plan.Plan.name
         (Tcar.placement_name placement));
  let clock = Clock.create (Tcar.sim car) in
  let records =
    List.map
      (fun entry ->
        { entry; injected_at = None; cleared_at = None; region = [] })
      plan.Plan.entries
  in
  let rec t =
    lazy
      {
        car;
        twin = (fun () -> build ());
        obs;
        clock;
        watchdog =
          Watchdog.create ~clock ~ping:(ping car)
            ~on_expire:(fun () -> degrade (Lazy.force t) ())
            (Tcar.sim car);
        plan;
        records;
        base_corrupt_prob = Can.Bus.corrupt_prob (lone_bus car);
        mode_changes = [ (0.0, Tcar.mode car) ];
        stall_started = None;
        failsafe_entered = None;
        min_clock_factor = 1.0;
        babblers = 0;
        faulted = [];
      }
  in
  let t = Lazy.force t in
  List.iter
    (fun r ->
      Engine.schedule (Tcar.sim car) ~at:r.entry.Plan.at (fun _ -> inject t r))
    records;
  t

let run_until t until = Engine.run_until (sim t) until

let car t = t.car

let twin t = t.twin ()

let obs t = t.obs

let watchdog t = t.watchdog

let plan t = t.plan

let records t = t.records

let faulted t = t.faulted

let stall_started t = t.stall_started

let failsafe_entered t = t.failsafe_entered

let min_clock_factor t = t.min_clock_factor

(* Mode as the harness saw it at [time]; changes land newest-first. *)
let mode_at t time =
  let rec find = function
    | [] -> Modes.Normal
    | (at, mode) :: older -> if at <= time then mode else find older
  in
  find t.mode_changes

(* The fail-safe deadline bound: from the moment the stall starts, the
   watchdog needs one period to notice, [deadline] seconds of *local*
   clock to trip, and one more period of slack for the discrete check
   grid — all stretched by the slowest clock rate seen. *)
let failsafe_bound t ~stall_at =
  let wd = t.watchdog in
  stall_at
  +. ((Watchdog.deadline wd +. (2.0 *. Watchdog.period wd))
     /. t.min_clock_factor)
