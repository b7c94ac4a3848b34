module Ast = Secpol_policy.Ast
module Ir = Secpol_policy.Ir
module Table = Secpol_policy.Table
module Verify = Secpol_policy.Verify
module Json = Secpol_policy.Json
module Rng = Secpol_sim.Rng
module Plan = Secpol_faults.Plan
module Histogram = Secpol_obs.Histogram
module Clock = Secpol_obs.Clock
module Partition = Secpol_par.Partition
module Names = Secpol_vehicle.Names
module Modes = Secpol_vehicle.Modes
module Policy_map = Secpol_vehicle.Policy_map
module Instance = Secpol_vehicle.Instance
module Threat_catalog = Secpol_vehicle.Threat_catalog

type stage = { name : string; fraction : float; start_day : float }

type config = {
  fleet : int;
  seed : int64;
  domains : int;
  stages : stage list;
  ota_mean_days : float;
  recall_mean_days : float;
  recall_no_show : float;
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
    fleet;
    seed;
    domains;
    stages =
      [
        { name = "canary"; fraction = 0.01; start_day = 0.0 };
        { name = "cohort"; fraction = 0.10; start_day = 2.0 };
        { name = "fleet"; fraction = 1.0; start_day = 5.0 };
      ];
    ota_mean_days = 3.0;
    recall_mean_days = 90.0;
    recall_no_show = 0.25;
    horizon_days;
    tick_days = (if quick then 0.5 else 0.25);
    plan = Plan.threat_trigger ~at:6.0 ~horizon:horizon_days ();
    threat_id = Threat_catalog.door_lock_in_accident;
    lock_bursts_every = (if quick then 32 else 16);
  }

(* ---------- validation ---------- *)

let validate cfg =
  let err fmt = Printf.ksprintf (fun m -> Error ("campaign: " ^ m)) fmt in
  if cfg.fleet <= 0 then err "fleet must be positive"
  else if cfg.domains < 1 then err "domains must be >= 1"
  else if cfg.horizon_days <= 0.0 then err "horizon must be positive"
  else if cfg.tick_days <= 0.0 then err "tick must be positive"
  else if cfg.ota_mean_days <= 0.0 then err "ota mean must be positive"
  else if cfg.recall_mean_days <= 0.0 then err "recall mean must be positive"
  else if cfg.recall_no_show < 0.0 || cfg.recall_no_show > 1.0 then
    err "recall no-show outside [0,1]"
  else if cfg.stages = [] then err "no rollout stages"
  else begin
    let rec stages_ok prev_f prev_d = function
      | [] -> Ok ()
      | s :: rest ->
          if s.fraction <= prev_f || s.fraction > 1.0 then
            err "stage %S: fractions must ascend within (0,1]" s.name
          else if s.start_day < prev_d then
            err "stage %S: start days must not decrease" s.name
          else stages_ok s.fraction s.start_day rest
    in
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
            | Some row -> Ok (row, window)))
  end

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
}

(* A fixed answer is one array read.  Only a request that a rated allow
   matches reads the tick's clock and the vehicle's own windows. *)
let[@inline] answer (cfg : config) inst (answers : Table.resolved array)
    (requests : Ir.request array) row k =
  let r = answers.(row) in
  if Array.length r.Table.rated = 0 then r.Table.otherwise
  else
    Instance.decide inst r ~subject:requests.(row).Ir.subject
      ~now:(float_of_int k *. cfg.tick_days *. 86_400.0)

(* Each vehicle runs all of its ticks in one loop.  Everything a tick
   touches belongs to that vehicle, the counters are integer sums and
   every time-to-mitigation is a whole number of ticks (an exact float
   sum), so the report is the one a sweep of the fleet tick by tick
   gives. *)
let run_shard ~(cfg : config) ~gate_passed ~v_old ~answers_old ~v_new
    ~answers_new ~requests ~t_on ~t_off ids =
  let stages = Array.of_list cfg.stages in
  let n_stages = Array.length stages in
  let decisions = ref 0
  and benign_denied = ref 0
  and lock_allowed = ref 0
  and lock_denied = ref 0
  and old_count = ref 0
  and recall_never = ref 0 in
  let assigned = Array.make n_stages 0 and adopted = Array.make n_stages 0 in
  let hist = day_histogram () and recall_hist = day_histogram () in
  let n_benign = Array.length requests - 2 in
  let attack_row = n_benign and lock_row = n_benign + 1 in
  let every = cfg.lock_bursts_every in
  let ticks = int_of_float (ceil (cfg.horizon_days /. cfg.tick_days)) in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    let rng = Rng.create (vehicle_seed cfg.seed id) in
    let stage = stage_index cfg.stages (Rng.float rng 1.0) in
    let adopt =
      if stage < 0 then infinity
      else begin
        assigned.(stage) <- assigned.(stage) + 1;
        if gate_passed then
          stages.(stage).start_day +. Rng.exponential rng cfg.ota_mean_days
        else infinity
      end
    in
    let rrng = Rng.create (Int64.logxor (vehicle_seed cfg.seed id) recall_salt) in
    if Rng.chance rrng cfg.recall_no_show then incr recall_never
    else begin
      (* the recall comparator is statistical and untruncated: recalls run
         for years, so exposure simply ends when the garage visit lands *)
      let landed = Rng.exponential rrng cfg.recall_mean_days in
      Histogram.observe recall_hist (Float.max 0.0 (landed -. t_on))
    end;
    let inst = Instance.create ~id ~version:v_old () in
    let answers = ref answers_old in
    let row = ref (id mod n_benign) in
    let burst = ref (if every > 0 then id mod every else 0) in
    let mitigated = ref false in
    for k = 0 to ticks - 1 do
      let day = float_of_int k *. cfg.tick_days in
      if Instance.version inst = v_old && day >= adopt then begin
        Instance.install inst ~version:v_new;
        answers := answers_new;
        adopted.(stage) <- adopted.(stage) + 1
      end;
      let answers = !answers in
      incr decisions;
      if answer cfg inst answers requests !row k = Ast.Deny then
        incr benign_denied;
      row := if !row = n_benign - 1 then 0 else !row + 1;
      if (not !mitigated) && day >= t_on && day < t_off then begin
        incr decisions;
        if answer cfg inst answers requests attack_row k = Ast.Deny then begin
          mitigated := true;
          Histogram.observe hist (day -. t_on)
        end
      end;
      if every > 0 then begin
        if !burst = 0 then
          for _ = 1 to 3 do
            match answer cfg inst answers requests lock_row k with
            | Ast.Allow -> incr lock_allowed
            | Ast.Deny -> incr lock_denied
          done;
        burst := if !burst = every - 1 then 0 else !burst + 1
      end
    done;
    if Instance.version inst = v_old then incr old_count
  done;
  {
    s_decisions = !decisions;
    s_benign_denied = !benign_denied;
    s_lock_allowed = !lock_allowed;
    s_lock_denied = !lock_denied;
    s_assigned = assigned;
    s_adopted = adopted;
    s_old_count = !old_count;
    s_new_count = Array.length ids - !old_count;
    s_hist = hist;
    s_recall_hist = recall_hist;
    s_recall_never = !recall_never;
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
      if db_old.Ir.version = db_new.Ir.version then
        Error "campaign: update must change the policy version"
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
        let shards =
          Partition.assign_by ~shards:cfg.domains string_of_int
            (Array.init cfg.fleet Fun.id)
        in
        let shard ids =
          run_shard ~cfg ~gate_passed:g.passed ~v_old:db_old.Ir.version
            ~answers_old ~v_new:db_new.Ir.version ~answers_new ~requests ~t_on
            ~t_off ids
        in
        let outs =
          if cfg.domains = 1 then [| shard shards.(0) |]
          else
            shards
            |> Array.map (fun ids -> Domain.spawn (fun () -> shard ids))
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
          channel_report ~fleet_never:(cfg.fleet - Histogram.count hist) hist
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
      ("fleet", Json.Int cfg.fleet);
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
