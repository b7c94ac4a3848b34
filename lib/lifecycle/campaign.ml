module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Table = Secpol_policy.Table
module Verify = Secpol_policy.Verify
module Update = Secpol_policy.Update
module Json = Secpol_policy.Json
module Rng = Secpol_sim.Rng
module Plan = Secpol_faults.Plan
module Histogram = Secpol_obs.Histogram
module Clock = Secpol_obs.Clock
module Names = Secpol_vehicle.Names
module Modes = Secpol_vehicle.Modes
module Policy_map = Secpol_vehicle.Policy_map
module Instance = Secpol_vehicle.Instance
module Threat_catalog = Secpol_vehicle.Threat_catalog

type stage = { name : string; fraction : float; start_day : float }

type config = {
  adoption : Ota.params;
  seed : int64;
  domains : int;
  stages : stage list;
  horizon_days : float;
  tick_days : float;
  plan : Plan.t;
  threat_id : string;
  lock_bursts_every : int;
}

let default_config ?(fleet = 100_000) ?(seed = 42L) ?(domains = 1)
    ?(quick = false) () =
  let horizon_days = 30.0 in
  {
    adoption = { Ota.default_params with fleet };
    seed;
    domains;
    stages =
      [
        { name = "canary"; fraction = 0.01; start_day = 0.0 };
        { name = "cohort"; fraction = 0.10; start_day = 2.0 };
        { name = "fleet"; fraction = 1.0; start_day = 5.0 };
      ];
    horizon_days;
    tick_days = (if quick then 0.5 else 0.25);
    plan = Plan.threat_trigger ~at:6.0 ~horizon:horizon_days ();
    threat_id = Threat_catalog.door_lock_in_accident;
    lock_bursts_every = (if quick then 32 else 16);
  }

(* ---------- validation ---------- *)

let validate cfg =
  let err fmt = Printf.ksprintf (fun m -> Error ("campaign: " ^ m)) fmt in
  let rec stages_ok prev_f prev_d = function
    | [] -> Ok ()
    | s :: rest ->
        if s.fraction <= prev_f || s.fraction > 1.0 then
          err "stage %S: fractions must ascend within (0,1]" s.name
        else if s.start_day < prev_d then
          err "stage %S: start days must not decrease" s.name
        else stages_ok s.fraction s.start_day rest
  in
  match Ota.validate cfg.adoption with
  | Error e -> err "%s" e
  | Ok () when cfg.domains < 1 -> err "domains must be >= 1"
  | Ok () when cfg.horizon_days <= 0.0 -> err "horizon must be positive"
  | Ok () when cfg.tick_days <= 0.0 -> err "tick must be positive"
  | Ok () when cfg.stages = [] -> err "no rollout stages"
  | Ok () -> (
      match stages_ok 0.0 0.0 cfg.stages with
      | Error _ as e -> e
      | Ok () -> (
          match Plan.threat_window cfg.plan with
          | None -> err "plan %S carries no threat window" cfg.plan.Plan.name
          | Some (t_on, _, _) when t_on >= cfg.horizon_days ->
              err "threat activates at day %g, past the %g-day horizon" t_on
                cfg.horizon_days
          | Some window -> (
              match Threat_catalog.find cfg.threat_id with
              | None -> err "unknown threat id %S" cfg.threat_id
              | Some row -> Ok (row, window))))

(* ---------- verifier gate ---------- *)

type gate = Verify.gate = {
  widened : int;
  tightened : int;
  changed : int;
  violations_before : int;
  violations_after : int;
  passed : bool;
  refusal : string option;
}

let gate ~old_db ~new_db () =
  Verify.gate
    ~obligations:(Threat_catalog.obligations ())
    (Verify.diff old_db new_db)

(* ---------- reports ---------- *)

type channel_report = {
  mitigated : int;
  never : int;
  p50_days : float;
  p99_days : float;
  mean_days : float;
}

type stage_report = {
  stage : stage;
  gate_passed : bool;
  started : bool;
  vehicles : int;
  adopted : int;
}

type report = {
  config : config;
  threat_title : string;
  threat_day : float;
  gate : gate;
  stages : stage_report list;
  versions : (int * int) list;
  decisions : int;
  benign_denied : int;
  lock_allowed : int;
  lock_denied : int;
  tampered : int;
  ota : channel_report;
  recall : channel_report;
  speedup_p50 : float;
  elapsed_s : float;
  throughput_per_s : float;
}

(* ---------- per-vehicle determinism ---------- *)

let golden = 0x9E3779B97F4A7C15L

(* one independent stream per (seed, vehicle); a second, salted stream
   for the recall baseline so the comparator can never perturb the OTA
   draws *)
let vehicle_seed seed id = Int64.add seed (Int64.mul golden (Int64.of_int (id + 1)))

let recall_salt = 0x5DEECE66DA5A5A5AL

(* -1: past every stage's fraction *)
let stage_index stages u =
  let rec go i = function
    | [] -> -1
    | s :: rest -> if u < s.fraction then i else go (i + 1) rest
  in
  go 0 stages

(* day-scale log histogram: first bucket one quarter-day, range out past
   any recall tail; both channels use the same layout so either merges
   across shards *)
let day_histogram () = Histogram.create ~lo:0.25 ~ratio:1.25 ~buckets:48 ()

(* ---------- traffic ---------- *)

(* Designed normal-mode traffic: each message probed as its first designed
   producer (write) and first designed consumer (read).  Lock-command
   writes are excluded: they are the lock bursts' own row, counted as
   lock_allowed / lock_denied, and keeping them out of the benign mix
   keeps the report's counts as they have always been. *)
let benign_templates () =
  let module M = Secpol_vehicle.Messages in
  let normal = Modes.name Modes.Normal in
  M.all
  |> List.concat_map (fun (m : M.t) ->
         if not (m.modes = [] || List.mem Modes.Normal m.modes) then []
         else begin
           let write =
             match m.producers with
             | p :: _ when m.id <> M.lock_command ->
                 [
                   {
                     Ir.mode = normal;
                     subject = Names.asset_of_node p;
                     asset = m.asset;
                     op = Ir.Write;
                     msg_id = Some m.id;
                   };
                 ]
             | _ -> []
           in
           let read =
             match m.consumers with
             | c :: _ ->
                 [
                   {
                     Ir.mode = normal;
                     subject = Names.asset_of_node c;
                     asset = m.asset;
                     op = Ir.Read;
                     msg_id = Some m.id;
                   };
                 ]
             | [] -> []
           in
           write @ read
         end)
  |> Array.of_list

(* the benign templates, then the attack probe, then the lock-burst frame *)
let requests ((row : Threat_catalog.row), (_, _, msg_id)) =
  let threat = row.Threat_catalog.threat in
  let attack =
    (* the forged frame as the policy layer sees it: the threat's live
       mode, arriving over its first entry point *)
    let mode =
      match threat.Secpol_threat.Threat.modes with
      | m :: _ -> m
      | [] -> Modes.name Modes.Normal
    in
    let subject =
      match threat.Secpol_threat.Threat.entry_points with
      | ep :: _ -> (
          match Names.nodes_of_entry_point ep with
          | node :: _ -> Names.asset_of_node node
          | [] -> Verify.other)
      | [] -> Verify.other
    in
    {
      Ir.mode;
      subject;
      asset = threat.Secpol_threat.Threat.asset;
      op = Ir.Write;
      msg_id = Some msg_id;
    }
  in
  let lock =
    {
      Ir.mode = Modes.name Modes.Normal;
      subject = Names.asset_connectivity;
      asset = Names.door_locks;
      op = Ir.Write;
      msg_id = Some Secpol_vehicle.Messages.lock_command;
    }
  in
  Array.append (benign_templates ()) [| attack; lock |]

let traffic cfg = Result.map requests (validate cfg)

(* ---------- shard execution ---------- *)

type shard_out = {
  s_decisions : int;
  s_benign_denied : int;
  s_lock_allowed : int;
  s_lock_denied : int;
  s_assigned : int array;
  s_adopted : int array;
  s_old_count : int;
  s_new_count : int;
  s_hist : Histogram.t;
  s_recall_hist : Histogram.t;
  s_recall_never : int;
  s_tampered : int;
  s_verified_tampered : int;
}

(* The shard's tick grid, the same for every vehicle: tick [k] on day
   [float_of_int k *. tick_days], the threat live on the ticks [[k_on,
   k_off)] and vehicle [id] bursting on every tick [k] with [(id + k) mod
   every = 0] ([every = 0]: never).  [requests] are the [n_benign] benign
   rows, then the attack probe, then the lock row. *)
type grid = {
  requests : Ir.request array;
  n_benign : int;
  tick_days : float;
  every : int;
  k_on : int;
  k_off : int;
}

(* One version's answers, arranged for counting.  A request whose
   resolved answer has no rated allow is fixed: it is the same for every
   vehicle at every tick and never touches a window, so its decisions
   are summed.  A rated one is decided on each tick it comes up. *)
type plan = {
  answers : Table.resolved array;
  denied_below : int array;
      (* [denied_below.(j)]: benign rows in [[0, j)] with a fixed Deny *)
  to_rated : int array;
      (* [to_rated.(r)]: rows from [r] on, round the benign cycle, to the
         next rated one ([0] when [r] is rated); -1 when none is *)
  attack_rated : bool;
  lock_rated : bool;
}

(* What a shard has served so far, the current vehicle's mitigating
   tick (-1 while it is exposed), and the rollout's tampered deliveries
   with those whose copy passed the integrity check (none may). *)
type tally = {
  mutable decisions : int;
  mutable benign_denied : int;
  mutable lock_allowed : int;
  mutable lock_denied : int;
  mutable mitigated_at : int;
  mutable tampered : int;
  mutable verified_tampered : int;
}

let[@inline] is_rated (r : Table.resolved) = Array.length r.Table.rated > 0

let plan_of g answers =
  let n = g.n_benign in
  let denied_below = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    let fixed_deny =
      (not (is_rated answers.(r))) && answers.(r).Table.otherwise = Ast.Deny
    in
    denied_below.(r + 1) <- (denied_below.(r) + if fixed_deny then 1 else 0)
  done;
  (* twice round the cycle backwards: every row meets the nearest rated
     row at or after it *)
  let to_rated = Array.make n (-1) and next = ref (-1) in
  for j = (2 * n) - 1 downto 0 do
    if is_rated answers.(j mod n) then next := j;
    if j < n && !next >= 0 then to_rated.(j) <- !next - j
  done;
  {
    answers;
    denied_below;
    to_rated;
    attack_rated = is_rated answers.(n);
    lock_rated = is_rated answers.(n + 1);
  }

(* The first tick [k] in [[0, ticks)] with [float_of_int k *. tick_days >=
   day], or [ticks].  Days grow with [k], so a binary search over the
   comparison a walk of the ticks would make finds the tick it would. *)
let[@inline] first_tick ~tick_days ~ticks day =
  let lo = ref 0 and hi = ref ticks in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if float_of_int mid *. tick_days >= day then hi := mid else lo := mid + 1
  done;
  !lo

(* fixed denials among the first [x] benign rows read round the cycle
   from row 0; vehicle [id] reads row [(id + k) mod n_benign] at tick
   [k], so its ticks [[lo, hi)] have [denied_before (id + hi) -
   denied_before (id + lo)] *)
let denied_before g p x =
  let n = g.n_benign in
  (x / n * p.denied_below.(n)) + p.denied_below.(x mod n)

(* multiples of [e] in [[0, x)] *)
let multiples e x = (x + e - 1) / e

let[@inline] decide g p inst row k =
  Instance.decide inst p.answers.(row) ~subject:g.requests.(row).Ir.subject
    ~now:(float_of_int k *. g.tick_days *. 86_400.0)

(* the first tick at or after [k] on which vehicle [id] meets a rated
   answer of [p], or [max_int] *)
let next_visit t g p id k =
  let d = p.to_rated.((id + k) mod g.n_benign) in
  let benign = if d < 0 then max_int else k + d in
  let on = Int.max k g.k_on in
  let attack =
    if p.attack_rated && t.mitigated_at < 0 && on < g.k_off then on
    else max_int
  in
  let burst =
    if p.lock_rated && g.every > 0 then
      k + ((g.every - ((id + k) mod g.every)) mod g.every)
    else max_int
  in
  Int.min benign (Int.min attack burst)

(* The rated answers of vehicle [id]'s ticks [[k, hi)] on plan [p],
   decided on the vehicle's own windows tick by tick, and within a tick
   in the order the requests come: benign row, attack probe, burst.
   Only the ticks that have one are visited. *)
let rec visit t g p inst id k hi =
  let k = next_visit t g p id k in
  if k < hi then begin
    let row = (id + k) mod g.n_benign and attack = g.n_benign in
    if p.to_rated.(row) = 0 && decide g p inst row k = Ast.Deny then
      t.benign_denied <- t.benign_denied + 1;
    if p.attack_rated && t.mitigated_at < 0 && k >= g.k_on && k < g.k_off
    then begin
      t.decisions <- t.decisions + 1;
      if decide g p inst attack k = Ast.Deny then t.mitigated_at <- k
    end;
    if p.lock_rated && g.every > 0 && (id + k) mod g.every = 0 then
      for _ = 1 to 3 do
        match decide g p inst (attack + 1) k with
        | Ast.Allow -> t.lock_allowed <- t.lock_allowed + 1
        | Ast.Deny -> t.lock_denied <- t.lock_denied + 1
      done;
    visit t g p inst id (k + 1) hi
  end

(* Vehicle [id]'s ticks [[lo, hi)] on plan [p].  The fixed answers are
   counted: one benign decision a tick, the fixed denials off the cycle's
   prefix sums; a fixed attack answer on the run's overlap with the
   threat window (a Deny mitigates on its first tick, one decision); 3
   frames a burst tick for a fixed lock answer.  The rated ones are
   visited. *)
let run_ticks t g p inst id lo hi =
  t.decisions <- t.decisions + (hi - lo);
  t.benign_denied <-
    t.benign_denied + denied_before g p (id + hi) - denied_before g p (id + lo);
  if (not p.attack_rated) && t.mitigated_at < 0 then begin
    let a = Int.max lo g.k_on and b = Int.min hi g.k_off in
    if a < b then
      if p.answers.(g.n_benign).Table.otherwise = Ast.Deny then begin
        t.decisions <- t.decisions + 1;
        t.mitigated_at <- a
      end
      else t.decisions <- t.decisions + (b - a)
  end;
  if g.every > 0 && not p.lock_rated then begin
    let frames =
      3 * (multiples g.every (id + hi) - multiples g.every (id + lo))
    in
    match p.answers.(g.n_benign + 1).Table.otherwise with
    | Ast.Allow -> t.lock_allowed <- t.lock_allowed + frames
    | Ast.Deny -> t.lock_denied <- t.lock_denied + frames
  end;
  visit t g p inst id lo hi

(* Each vehicle's adoption tick splits its ticks into two runs, one per
   installed version, and each is one [run_ticks].  A fixed answer
   touches no window, so it can be summed in any order; each window sees
   the calls, at the [now]s, of a walk of every tick; everything a tick
   touches belongs to one vehicle and the counters are integer sums; and
   each vehicle adds at most one value to each histogram, in vehicle
   order.  So the report is the one a sweep of the fleet tick by tick
   gives. *)
let run_shard ~(cfg : config) ~gate_passed ~forged ~v_old ~answers_old ~v_new
    ~answers_new ~requests ~t_on ~t_off ~lo ~hi =
  let stages = Array.of_list cfg.stages in
  let n_stages = Array.length stages in
  let old_count = ref 0 and recall_never = ref 0 in
  let assigned = Array.make n_stages 0 and adopted = Array.make n_stages 0 in
  let hist = day_histogram () and recall_hist = day_histogram () in
  let tick_days = cfg.tick_days in
  let ticks = int_of_float (ceil (cfg.horizon_days /. tick_days)) in
  let k_on = first_tick ~tick_days ~ticks t_on in
  let g =
    {
      requests;
      n_benign = Array.length requests - 2;
      tick_days;
      every = cfg.lock_bursts_every;
      k_on;
      k_off = Int.max k_on (first_tick ~tick_days ~ticks t_off);
    }
  in
  let p_old = plan_of g answers_old and p_new = plan_of g answers_new in
  let t =
    {
      decisions = 0;
      benign_denied = 0;
      lock_allowed = 0;
      lock_denied = 0;
      mitigated_at = -1;
      tampered = 0;
      verified_tampered = 0;
    }
  in
  (* a tampered delivery meets the first check a vehicle's install
     makes, the bundle's checksum; [forged] is [Some] whenever a
     delivery can be tampered *)
  let on_tampered () =
    t.tampered <- t.tampered + 1;
    match forged with
    | Some copy when Update.verify copy ->
        t.verified_tampered <- t.verified_tampered + 1
    | Some _ | None -> ()
  in
  for id = lo to hi - 1 do
    let rng = Rng.create (vehicle_seed cfg.seed id) in
    let stage = stage_index cfg.stages (Rng.float rng 1.0) in
    let adopt =
      if stage < 0 then infinity
      else begin
        assigned.(stage) <- assigned.(stage) + 1;
        if gate_passed then
          stages.(stage).start_day
          +. Ota.delay rng cfg.adoption Ota.Over_the_air ~on_tampered
        else infinity
      end
    in
    let rrng = Rng.create (Int64.logxor (vehicle_seed cfg.seed id) recall_salt) in
    (* the recall comparator is statistical and untruncated: recalls run
       for years, so exposure simply ends when the garage visit lands *)
    let landed = Ota.delay rrng cfg.adoption Ota.Recall ~on_tampered:ignore in
    if Float.is_finite landed then
      Histogram.observe recall_hist (Float.max 0.0 (landed -. t_on))
    else incr recall_never;
    let inst = Instance.create ~id ~version:v_old () in
    let k_a = first_tick ~tick_days ~ticks adopt in
    t.mitigated_at <- -1;
    run_ticks t g p_old inst id 0 k_a;
    if k_a < ticks then begin
      Instance.install inst ~version:v_new;
      adopted.(stage) <- adopted.(stage) + 1;
      run_ticks t g p_new inst id k_a ticks
    end
    else incr old_count;
    if t.mitigated_at >= 0 then
      Histogram.observe hist
        ((float_of_int t.mitigated_at *. tick_days) -. t_on)
  done;
  {
    s_decisions = t.decisions;
    s_benign_denied = t.benign_denied;
    s_lock_allowed = t.lock_allowed;
    s_lock_denied = t.lock_denied;
    s_assigned = assigned;
    s_adopted = adopted;
    s_old_count = !old_count;
    s_new_count = hi - lo - !old_count;
    s_hist = hist;
    s_recall_hist = recall_hist;
    s_recall_never = !recall_never;
    s_tampered = t.tampered;
    s_verified_tampered = t.verified_tampered;
  }

(* ---------- the campaign ---------- *)

let channel_report ~fleet_never hist =
  let mitigated = Histogram.count hist in
  if mitigated = 0 then
    { mitigated; never = fleet_never; p50_days = 0.0; p99_days = 0.0; mean_days = 0.0 }
  else
    (* percentiles are bucket bounds (exact whatever the merge order);
       the mean is a float sum, so round to a microday to keep the
       report byte-identical across domain counts *)
    let microday x = Float.round (x *. 1e6) /. 1e6 in
    {
      mitigated;
      never = fleet_never;
      p50_days = Histogram.percentile hist 50.0;
      p99_days = Histogram.percentile hist 99.0;
      mean_days = microday (Histogram.mean hist);
    }

let run ?(old_policy = Policy_map.baseline ~version:1 ())
    ?(new_policy = Policy_map.hardened ~version:2 ()) cfg =
  match validate cfg with
  | Error _ as e -> e
  | Ok ((row, (t_on, t_off, _)) as threat) ->
      let started_at = Clock.now () in
      let db_old = Policy_map.compile old_policy
      and db_new = Policy_map.compile new_policy in
      if db_new.Ir.version <= db_old.Ir.version then
        Error
          (Printf.sprintf
             "campaign: update must raise the policy version (v%d -> v%d)"
             db_old.Ir.version db_new.Ir.version)
      else begin
        (* the only two table compiles of the whole campaign, each asked
           every distinct request once: every vehicle on a version reads
           that version's answers, which are immutable and shared by all
           shards *)
        let requests = requests threat in
        let answers db =
          Array.map
            (Table.resolve (Table.compile ~strategy:Table.Deny_overrides db))
            requests
        in
        let answers_old = answers db_old and answers_new = answers db_new in
        let g = gate ~old_db:db_old ~new_db:db_new () in
        (* what a tampered delivery carries: the new version's bundle with
           its source replaced, built only when a delivery can be *)
        let forged =
          if cfg.adoption.Ota.corruption > 0.0 then
            Some
              (Update.tampered (Update.bundle new_policy)
                 ~payload:"policy \"evil\" version 99 { }")
          else None
        in
        let fleet = cfg.adoption.Ota.fleet in
        (* domain [d] takes the contiguous ids
           [d * fleet / domains, (d + 1) * fleet / domains) *)
        let shard d =
          run_shard ~cfg ~gate_passed:g.passed ~forged
            ~v_old:db_old.Ir.version ~answers_old ~v_new:db_new.Ir.version
            ~answers_new ~requests ~t_on ~t_off
            ~lo:(d * fleet / cfg.domains)
            ~hi:((d + 1) * fleet / cfg.domains)
        in
        let outs =
          if cfg.domains = 1 then [| shard 0 |]
          else
            Array.init cfg.domains (fun d -> Domain.spawn (fun () -> shard d))
            |> Array.map Domain.join
        in
        let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
        let sum_at f s =
          Array.fold_left (fun acc o -> acc + (f o).(s)) 0 outs
        in
        let merge_hists f =
          Array.fold_left
            (fun acc o -> Histogram.merge acc (f o))
            (day_histogram ()) outs
        in
        let hist = merge_hists (fun o -> o.s_hist) in
        let recall_hist = merge_hists (fun o -> o.s_recall_hist) in
        let decisions = sum (fun o -> o.s_decisions) in
        let ota =
          channel_report ~fleet_never:(fleet - Histogram.count hist) hist
        in
        let recall =
          channel_report
            ~fleet_never:(sum (fun o -> o.s_recall_never))
            recall_hist
        in
        let speedup_p50 =
          if ota.mitigated = 0 || recall.mitigated = 0 then 0.0
          else recall.p50_days /. Float.max ota.p50_days cfg.tick_days
        in
        let elapsed_s = Clock.now () -. started_at in
        if sum (fun o -> o.s_verified_tampered) > 0 then
          Error "campaign: a vehicle accepted a tampered bundle"
        else
          Ok
            {
              config = cfg;
              threat_title = row.Threat_catalog.threat.Secpol_threat.Threat.title;
              threat_day = t_on;
              gate = g;
              stages =
                List.mapi
                  (fun s stage ->
                    {
                      stage;
                      gate_passed = g.passed;
                      started = g.passed && stage.start_day < cfg.horizon_days;
                      vehicles = sum_at (fun o -> o.s_assigned) s;
                      adopted = sum_at (fun o -> o.s_adopted) s;
                    })
                  cfg.stages;
              versions =
                [
                  (db_old.Ir.version, sum (fun o -> o.s_old_count));
                  (db_new.Ir.version, sum (fun o -> o.s_new_count));
                ];
              decisions;
              benign_denied = sum (fun o -> o.s_benign_denied);
              lock_allowed = sum (fun o -> o.s_lock_allowed);
              lock_denied = sum (fun o -> o.s_lock_denied);
              tampered = sum (fun o -> o.s_tampered);
              ota;
              recall;
              speedup_p50;
              elapsed_s;
              throughput_per_s =
                (if elapsed_s > 0.0 then float_of_int decisions /. elapsed_s
                 else 0.0);
            }
      end

(* ---------- JSON ---------- *)

let channel_to_json c =
  Json.Obj
    [
      ("mitigated", Json.Int c.mitigated);
      ("never", Json.Int c.never);
      ("p50_days", Json.Float c.p50_days);
      ("p99_days", Json.Float c.p99_days);
      ("mean_days", Json.Float c.mean_days);
    ]

let to_json r =
  let cfg = r.config in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("suite", Json.String "secpol-campaign");
      ("fleet", Json.Int cfg.adoption.Ota.fleet);
      ("seed", Json.String (Int64.to_string cfg.seed));
      ("domains", Json.Int cfg.domains);
      ("tick_days", Json.Float cfg.tick_days);
      ("horizon_days", Json.Float cfg.horizon_days);
      ( "threat",
        Json.Obj
          [
            ("id", Json.String cfg.threat_id);
            ("title", Json.String r.threat_title);
            ("activated_day", Json.Float r.threat_day);
            ("plan", Json.String cfg.plan.Plan.name);
          ] );
      ( "gate",
        Json.Obj
          [
            ("passed", Json.Bool r.gate.passed);
            ("widened", Json.Int r.gate.widened);
            ("tightened", Json.Int r.gate.tightened);
            ("changed", Json.Int r.gate.changed);
            ("violations_before", Json.Int r.gate.violations_before);
            ("violations_after", Json.Int r.gate.violations_after);
          ] );
      ( "stages",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.stage.name);
                   ("fraction", Json.Float s.stage.fraction);
                   ("start_day", Json.Float s.stage.start_day);
                   ("gate_passed", Json.Bool s.gate_passed);
                   ("started", Json.Bool s.started);
                   ("vehicles", Json.Int s.vehicles);
                   ("adopted", Json.Int s.adopted);
                 ])
             r.stages) );
      ( "versions",
        Json.Obj
          (List.map
             (fun (v, n) -> (string_of_int v, Json.Int n))
             r.versions) );
      ("decisions", Json.Int r.decisions);
      ("benign_denied", Json.Int r.benign_denied);
      ("lock_allowed", Json.Int r.lock_allowed);
      ("lock_denied", Json.Int r.lock_denied);
      ("ota", channel_to_json r.ota);
      ("recall", channel_to_json r.recall);
      ("speedup_p50", Json.Float r.speedup_p50);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("throughput_per_s", Json.Float r.throughput_per_s);
    ]
