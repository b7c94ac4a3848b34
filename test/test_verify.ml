(* Tests for the semantic verifier: Intervals/Region set algebra, symbolic
   partitions, the interpreter/compiled/symbolic equivalence proof, mode
   merging (SP010), dead regions (SP011), semantic diffing (SP012),
   threat-obligation checking (SP013) and the diagnostic catalogue. *)

module Ast = Secpol_policy.Ast
module Parser = Secpol_policy.Parser
module Printer = Secpol_policy.Printer
module Compile = Secpol_policy.Compile
module Ir = Secpol_policy.Ir
module Engine = Secpol_policy.Engine
module Intervals = Secpol_policy.Intervals
module Region = Secpol_policy.Region
module Verify = Secpol_policy.Verify
module Diagnostic = Secpol_policy.Diagnostic
module Reference = Secpol_policy.Reference
module Table = Secpol_policy.Table
module Hpe_config = Secpol_hpe.Config
module Policy_map = Secpol_vehicle.Policy_map
module Threat = Secpol_threat.Threat
module Stride = Secpol_threat.Stride
module Dread = Secpol_threat.Dread
module Obligation = Secpol_threat.Obligation

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

let parse_ok src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let compile_ok src =
  match Compile.compile (parse_ok src) with
  | Ok (db, _) -> db
  | Error issues ->
      Alcotest.fail
        ("compile failed: "
        ^ String.concat "; "
            (List.map (fun (i : Compile.issue) -> i.message) issues))

let has_code code diagnostics =
  List.exists (fun (d : Diagnostic.t) -> d.code = code) diagnostics

(* ---------- Intervals hardening ---------- *)

let max_id = Region.max_id

let iv ranges = Intervals.of_ranges ranges

let test_intervals_equal () =
  check Alcotest.bool "empty = empty" true
    (Intervals.equal Intervals.empty Intervals.empty);
  check Alcotest.bool "order-insensitive" true
    (Intervals.equal (iv [ (5, 9); (0, 3) ]) (iv [ (0, 3); (5, 9) ]));
  check Alcotest.bool "distinct" false
    (Intervals.equal (iv [ (0, 3) ]) (iv [ (0, 4) ]))

let test_intervals_complement_boundaries () =
  (* complement of the empty set is the whole space, and back *)
  let full = Intervals.complement Intervals.empty ~lo:0 ~hi:max_id in
  check Alcotest.bool "complement empty = full" true
    (Intervals.equal full (iv [ (0, max_id) ]));
  check Alcotest.int "full cardinal is 2^29" (max_id + 1)
    (Intervals.cardinal full);
  check Alcotest.bool "complement full = empty" true
    (Intervals.is_empty (Intervals.complement full ~lo:0 ~hi:max_id));
  (* interior hole: both edges inclusive *)
  let holed = Intervals.complement (iv [ (1, max_id - 1) ]) ~lo:0 ~hi:max_id in
  check Alcotest.bool "edges survive" true
    (Intervals.equal holed (iv [ (0, 0); (max_id, max_id) ]))

let test_intervals_adjacent_coalescing () =
  (* adjacent ranges share no element yet must normalise to one *)
  let u = Intervals.union (iv [ (0, 4) ]) (iv [ (5, 9) ]) in
  check Alcotest.bool "adjacent union coalesces" true
    (Intervals.equal u (iv [ (0, 9) ]));
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "single range" [ (0, 9) ] (Intervals.ranges u);
  (* removing the seam splits it back *)
  let split = Intervals.diff u (iv [ (5, 5) ]) in
  check Alcotest.bool "seam removal splits" true
    (Intervals.equal split (iv [ (0, 4); (6, 9) ]))

let test_intervals_algebra () =
  let a = iv [ (0, 10); (20, 30) ] and b = iv [ (5, 25) ] in
  check Alcotest.bool "inter" true
    (Intervals.equal (Intervals.inter a b) (iv [ (5, 10); (20, 25) ]));
  check Alcotest.bool "diff" true
    (Intervals.equal (Intervals.diff a b) (iv [ (0, 4); (26, 30) ]));
  check Alcotest.bool "subset yes" true (Intervals.subset (iv [ (6, 9) ]) a);
  check Alcotest.bool "subset straddling" false
    (Intervals.subset (iv [ (9, 21) ]) a);
  check Alcotest.bool "empty subset of empty" true
    (Intervals.subset Intervals.empty Intervals.empty);
  (* de Morgan over the full message space *)
  let c x = Intervals.complement x ~lo:0 ~hi:max_id in
  check Alcotest.bool "de morgan" true
    (Intervals.equal (c (Intervals.union a b))
       (Intervals.inter (c a) (c b)))

(* The algebra against a membership model.  Every set here is a union of
   ranges, so membership can only change at a range's [lo] or just past
   its [hi]: checking the model at each drawn or resulting endpoint and
   at its neighbours checks it at every point of [0..max_id]. *)
let point_gen =
  QCheck.Gen.(
    oneof [ 0 -- 12; map (fun d -> max_id - d) (0 -- 12); 0 -- max_id ])

let ranges_gen =
  QCheck.Gen.(
    let range =
      let* lo = point_gen in
      let* w = oneof [ 0 -- 6; 0 -- (max_id - lo) ] in
      return (lo, min max_id (lo + w))
    in
    (* a range and one that touches or overlaps it *)
    let touching =
      let* lo, hi = range in
      let* next = oneofl [ hi + 1; hi; lo; lo + ((hi - lo) / 2) ] in
      let* w = 0 -- 6 in
      let next = min max_id next in
      return [ (lo, hi); (next, min max_id (next + w)) ]
    in
    map List.concat
      (list_size (0 -- 3) (oneof [ map (fun r -> [ r ]) range; touching ])))

(* each range cut into two adjacent halves: the same set, unnormalised *)
let halves =
  List.concat_map (fun (lo, hi) ->
      if lo = hi then [ (lo, hi) ]
      else
        let mid = lo + ((hi - lo) / 2) in
        [ (mid + 1, hi); (lo, mid) ])

let interval_case_gen =
  QCheck.Gen.(
    let* ra = ranges_gen in
    let* rb =
      oneof
        [
          ranges_gen;
          return (halves ra);
          map (fun extra -> List.rev_append ra extra) ranges_gen;
        ]
    in
    let* c1 = point_gen in
    let* c2 = point_gen in
    return (ra, rb, (min c1 c2, max c1 c2)))

let print_interval_case =
  let rs l =
    String.concat "; "
      (List.map (fun (lo, hi) -> Printf.sprintf "%d..%d" lo hi) l)
  in
  fun (ra, rb, (lo, hi)) ->
    Printf.sprintf "a = [%s]  b = [%s]  complement in %d..%d" (rs ra) (rs rb)
      lo hi

let normal_form t =
  let rec apart = function
    | (_, h1) :: ((l2, _) :: _ as rest) -> h1 + 1 < l2 && apart rest
    | [ _ ] | [] -> true
  in
  let rs = Intervals.ranges t in
  List.for_all (fun (lo, hi) -> 0 <= lo && lo <= hi && hi <= max_id) rs
  && apart rs

let prop_intervals_model =
  QCheck.Test.make ~name:"algebra matches a set model, in normal form"
    ~count:1000
    (QCheck.make ~print:print_interval_case interval_case_gen)
    (fun (ra, rb, (lo, hi)) ->
      let a = iv ra and b = iv rb in
      let in_ rs x = List.exists (fun (l, h) -> l <= x && x <= h) rs in
      let results =
        [
          (a, in_ ra);
          (b, in_ rb);
          (Intervals.union a b, fun x -> in_ ra x || in_ rb x);
          (Intervals.inter a b, fun x -> in_ ra x && in_ rb x);
          (Intervals.diff a b, fun x -> in_ ra x && not (in_ rb x));
          ( Intervals.complement a ~lo ~hi,
            fun x -> lo <= x && x <= hi && not (in_ ra x) );
        ]
      in
      let points =
        List.concat_map
          (fun (l, h) -> [ 0; l - 1; l; h; h + 1; max_id ])
          (((lo, hi) :: ra) @ rb
          @ List.concat_map (fun (r, _) -> Intervals.ranges r) results)
        |> List.filter (fun x -> 0 <= x && x <= max_id)
        |> List.sort_uniq Int.compare
      in
      let holds p = List.for_all p points in
      List.for_all
        (fun (r, model) ->
          normal_form r && holds (fun x -> Intervals.mem r x = model x))
        results
      && Intervals.subset a b = holds (fun x -> (not (in_ ra x)) || in_ rb x)
      && Intervals.equal a b = holds (fun x -> in_ ra x = in_ rb x))

(* ---------- Region ---------- *)

let test_region_of_messages () =
  check Alcotest.bool "no clause includes the id-less request" true
    (Region.mem Region.full None);
  check Alcotest.bool "no clause includes the top id" true
    (Region.mem Region.full (Some max_id));
  let r = Region.of_messages (Some [ Ast.range 0x100 0x10f ]) in
  check Alcotest.bool "clause excludes the id-less request" false
    (Region.mem r None);
  check Alcotest.bool "clause includes its ids" true (Region.mem r (Some 0x105));
  check Alcotest.int "cardinal counts no-id as one point" (max_id + 2)
    (Region.cardinal Region.full)

let test_region_algebra () =
  let r = Region.of_messages (Some [ Ast.range 10 20 ]) in
  let d = Region.diff Region.full r in
  check Alcotest.bool "diff keeps no-id" true (Region.mem d None);
  check Alcotest.bool "diff drops ids" false (Region.mem d (Some 15));
  check Alcotest.bool "union restores full" true
    (Region.equal (Region.union d r) Region.full);
  check Alcotest.bool "inter with none_only" true
    (Region.equal (Region.inter Region.full Region.none_only) Region.none_only);
  check Alcotest.bool "subset" true (Region.subset r Region.full);
  check Alcotest.bool "none_only not subset of ids" false
    (Region.subset Region.none_only Region.all_ids)

let test_region_witnesses () =
  let w = Region.witnesses Region.full in
  check Alcotest.bool "includes the id-less request" true (List.mem None w);
  check Alcotest.bool "includes the low boundary" true (List.mem (Some 0) w);
  check Alcotest.bool "includes the high boundary" true
    (List.mem (Some max_id) w);
  check Alcotest.bool "all witnesses are members" true
    (List.for_all (Region.mem Region.full) w);
  check (Alcotest.list Alcotest.int) "single point region"
    [ 7 ]
    (List.filter_map Fun.id (Region.witnesses (Region.of_intervals (iv [ (7, 7) ]))))

(* ---------- Symbolic partitions ---------- *)

let strategies =
  [ Engine.Deny_overrides; Engine.Allow_overrides; Engine.First_match ]

let partition_src =
  {|
policy "p" version 1 {
  default deny;
  asset a {
    deny  write from s messages 0x100..0x1ff;
    allow write from s messages 0x180..0x2ff;
  }
}
|}

let test_partition_covers_everything () =
  let db = compile_ok partition_src in
  List.iter
    (fun strategy ->
      let segs =
        Verify.partition ~strategy db
          { Verify.mode = "m"; subject = "s"; asset = "a"; op = Ir.Write }
      in
      (* disjoint and total: the union is the whole dimension and the sum
         of cardinals has no double counting *)
      let union =
        List.fold_left
          (fun acc (s : Verify.segment) -> Region.union acc s.region)
          Region.empty segs
      in
      check Alcotest.bool "total" true (Region.equal union Region.full);
      check Alcotest.int "disjoint"
        (Region.cardinal Region.full)
        (List.fold_left
           (fun acc (s : Verify.segment) -> acc + Region.cardinal s.region)
           0 segs))
    strategies

let test_partition_strategy_folding () =
  let db = compile_ok partition_src in
  let cell = { Verify.mode = "m"; subject = "s"; asset = "a"; op = Ir.Write } in
  let decision_at strategy id =
    let segs = Verify.partition ~strategy db cell in
    let s =
      List.find (fun (s : Verify.segment) -> Region.mem s.region (Some id)) segs
    in
    s.Verify.cls
  in
  (* 0x180..0x1ff is contested: deny-overrides and first-match let the
     deny win, allow-overrides the allow *)
  check Alcotest.bool "deny overrides" true
    (decision_at Engine.Deny_overrides 0x180 = Verify.Deny);
  check Alcotest.bool "first match" true
    (decision_at Engine.First_match 0x180 = Verify.Deny);
  check Alcotest.bool "allow overrides" true
    (decision_at Engine.Allow_overrides 0x180 = Verify.Allow);
  check Alcotest.bool "uncontested allow" true
    (decision_at Engine.Deny_overrides 0x200 = Verify.Allow);
  check Alcotest.bool "default tail" true
    (decision_at Engine.Deny_overrides 0x300 = Verify.Deny)

(* ---------- Equivalence proof ---------- *)

(* A generator biased towards collisions: names from tiny pools so rules
   overlap, conflict and occlude; small message ranges for shared
   boundaries; small rate budgets so exhausted-oracle states are
   reproducible. *)
let name_from pool =
  QCheck.Gen.(map (List.nth pool) (0 -- (List.length pool - 1)))

let subjects_gen =
  QCheck.Gen.(
    oneof
      [
        return Ast.Any_subject;
        map
          (fun l -> Ast.Subjects l)
          (list_size (1 -- 2) (name_from [ "s1"; "s2"; "s3" ]));
      ])

let messages_gen =
  QCheck.Gen.(
    oneof
      [
        return None;
        map
          (fun rs -> Some (List.map (fun (lo, w) -> Ast.range lo (lo + w)) rs))
          (list_size (1 -- 2) (pair (0 -- 20) (0 -- 6)));
      ])

let rate_gen =
  QCheck.Gen.(
    map
      (fun (count, window_ms) -> Ast.rate_limit ~count ~window_ms)
      (pair (1 -- 3) (100 -- 1000)))

let modes_gen = QCheck.Gen.(list_size (1 -- 2) (name_from [ "m1"; "m2" ]))

let rule_gen =
  QCheck.Gen.(
    let* decision = oneofl [ Ast.Allow; Ast.Deny ] in
    let* op = oneofl [ Ast.Read; Ast.Write; Ast.Rw ] in
    let* subjects = subjects_gen in
    let* messages = messages_gen in
    let* rate =
      if decision = Ast.Deny then return None
      else oneof [ return None; map Option.some rate_gen ]
    in
    return { Ast.decision; op; subjects; messages; rate })

let small_policy_gen =
  QCheck.Gen.(
    let block_gen =
      let* asset = name_from [ "a1"; "a2" ] in
      let* rules = list_size (1 -- 3) rule_gen in
      return { Ast.asset; rules }
    in
    let section_gen =
      oneof
        [
          map (fun b -> Ast.Global b) block_gen;
          (let* modes = modes_gen in
           let* blocks = list_size (1 -- 2) block_gen in
           return (Ast.Modes (modes, blocks)));
        ]
    in
    let* default = oneofl [ Ast.Deny; Ast.Allow ] in
    let* sections = list_size (1 -- 3) section_gen in
    return
      {
        Ast.name = "gen";
        version = 1;
        sections = Ast.Default default :: sections;
      })

let compile_gen p =
  match Compile.compile p with
  | Ok (db, _) -> db
  | Error _ -> QCheck.assume_fail ()

let prop_proof_holds =
  QCheck.Test.make
    ~name:"interpreted = compiled = symbolic on random policies" ~count:60
    (QCheck.make small_policy_gen) (fun p ->
      let db = compile_gen p in
      List.for_all
        (fun strategy ->
          let r = Verify.analyse ~strategy db in
          Verify.proved r.Verify.proof
          && not (has_code Diagnostic.Semantics_divergence r.Verify.diagnostics))
        strategies)

(* ---------- HPE lists read off the table ---------- *)

(* IDs 0..27 on both generated assets: every generated range, shared IDs
   across assets, and IDs no rule names *)
let hpe_bindings =
  List.concat_map
    (fun asset ->
      List.init 28 (fun msg_id -> { Hpe_config.msg_id; asset }))
    [ "a1"; "a2" ]

let prop_hpe_lists_match_reference =
  QCheck.Test.make ~name:"HPE lists = per-query reference on random policies"
    ~count:100 (QCheck.make small_policy_gen) (fun p ->
      let db = compile_gen p in
      let table = Table.compile ~strategy:Table.Deny_overrides db in
      (* s4 and m3 are never named: the wildcard bucket, the unknown mode *)
      List.for_all
        (fun mode ->
          List.for_all
            (fun (subject, (cfg : Hpe_config.t)) ->
              let request op (b : Hpe_config.binding) =
                { Ir.mode; subject; asset = b.asset; op; msg_id = Some b.msg_id }
              in
              (* a fresh reference per query: no budget is ever spent *)
              let allows op b =
                fst (Reference.decide (Reference.create db) (request op b))
                = Ast.Allow
              in
              let ids op =
                List.sort_uniq compare
                  (List.filter_map
                     (fun (b : Hpe_config.binding) ->
                       if allows op b then Some b.msg_id else None)
                     hpe_bindings)
              in
              (* each rated ID's chain is its first rated binding's
                 resolved answer, every rule on its own slot *)
              let slots = cfg.budgets.slots in
              let chains op =
                List.fold_left
                  (fun acc (b : Hpe_config.binding) ->
                    let res = Table.resolve table (request op b) in
                    if Array.length res.rated = 0 || List.mem_assoc b.msg_id acc
                    then acc
                    else (b.msg_id, res) :: acc)
                  [] hpe_bindings
                |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
              in
              let chain_matches rules (id, (res : Table.resolved)) =
                match List.assoc_opt id (Array.to_list rules) with
                | None -> false
                | Some (c : Secpol_hpe.Registers.chain) ->
                    c.otherwise = res.otherwise
                    && Array.length c.rated = Array.length res.rated
                    && Array.for_all2
                         (fun slot (r : Ir.rule) ->
                           Some slots.(slot) = r.rate)
                         c.rated res.rated
              in
              let rated = chains Ir.Read @ chains Ir.Write in
              let rules =
                List.sort_uniq compare
                  (List.concat_map
                     (fun (_, (res : Table.resolved)) ->
                       List.map (fun (r : Ir.rule) -> r.idx)
                         (Array.to_list res.rated))
                     rated)
              in
              cfg.read_ids = ids Ir.Read
              && cfg.write_ids = ids Ir.Write
              && Array.to_list (Array.map fst cfg.budgets.reads)
                 = List.map fst (chains Ir.Read)
              && Array.to_list (Array.map fst cfg.budgets.writes)
                 = List.map fst (chains Ir.Write)
              && List.for_all (chain_matches cfg.budgets.reads) (chains Ir.Read)
              && List.for_all
                   (chain_matches cfg.budgets.writes)
                   (chains Ir.Write)
              && Array.length cfg.budgets.slots = List.length rules
              && cfg.own_ids = [])
            (Hpe_config.of_policy table ~mode
               ~subjects:[ "s1"; "s2"; "s3"; "s4" ]
               ~bindings:hpe_bindings))
        [ "m1"; "m2"; "m3" ])

(* ---------- HPE gates against the engine, frame by frame ---------- *)

(* Each ID bound once, even IDs to a1 and odd ones to a2, so a frame is
   one request and every generated range spans bound IDs of both assets *)
let gate_bindings =
  List.init 28 (fun msg_id ->
      { Hpe_config.msg_id; asset = (if msg_id mod 2 = 0 then "a1" else "a2") })

(* one node per subject; s4 is never named *)
let gate_subjects = [| "s1"; "s2"; "s3"; "s4" |]

type gate_frame = { node : int; write : bool; id : int; dt : float }

(* a policy, a mode, and frames mostly from one node on a few IDs, so
   the node meets the same budgets again and again *)
let gate_case_gen =
  QCheck.Gen.(
    let* p = small_policy_gen in
    let* mode = oneofl [ "m1"; "m2"; "m3" ] in
    let* hot_node = 0 -- 3 in
    let* hot = list_repeat 3 (0 -- 27) in
    let frame =
      let* node = frequency [ (3, return hot_node); (1, 0 -- 3) ] in
      let* write = bool in
      let* id = frequency [ (4, oneofl hot); (1, 0 -- 27) ] in
      let* dt = oneofl [ 0.0; 0.0; 0.05; 0.3; 1.0 ] in
      return { node; write; id; dt }
    in
    let* frames = list_size (0 -- 40) frame in
    return (p, mode, frames))

let print_gate_case (p, mode, frames) =
  Printf.sprintf "%s\nmode %s\n%s" (Printer.to_string p) mode
    (String.concat "; "
       (List.map
          (fun f ->
            Printf.sprintf "+%.2fs %s %s 0x%x" f.dt gate_subjects.(f.node)
              (if f.write then "tx" else "rx")
              f.id)
          frames))

(* Every frame through its node's HPE, provisioned from [db] for [mode],
   and, as the request it carries, through one Deny-overrides engine: the
   (gate, engine) answers in order.  Node [i] hosts [subjects.(i)]. *)
let replay db ~mode ~subjects ~bindings frames =
  let engine = Engine.create db in
  let bus =
    Secpol_can.Bus.create ~bitrate:500_000.0 (Secpol_sim.Engine.create ())
  in
  let hpes =
    Array.of_list
      (List.map
         (fun (subject, cfg) ->
           let hpe =
             Secpol_hpe.Engine.install
               (Secpol_can.Node.create ~name:subject bus)
           in
           (match Secpol_hpe.Engine.provision hpe cfg with
           | Ok () -> ()
           | Error e -> failwith ("provisioning: " ^ e));
           hpe)
         (Hpe_config.of_policy (Engine.table engine) ~mode
            ~subjects:(Array.to_list subjects) ~bindings))
  in
  let now = ref 0.0 in
  List.map
    (fun f ->
      now := !now +. f.dt;
      let frame = Secpol_can.Frame.data_std f.id "" in
      let hpe = hpes.(f.node) in
      let gate =
        if f.write then Secpol_hpe.Engine.gate_tx hpe ~now:!now frame
        else Secpol_hpe.Engine.gate_rx hpe ~now:!now frame
      in
      let software =
        Engine.permitted ~now:!now engine
          {
            Ir.mode;
            subject = subjects.(f.node);
            asset =
              (List.find (fun (b : Hpe_config.binding) -> b.msg_id = f.id)
                 bindings)
                .asset;
            op = (if f.write then Ir.Write else Ir.Read);
            msg_id = Some f.id;
          }
      in
      (gate, software))
    frames

(* Each node's HPE must give each frame on a bound ID the answer the
   engine gives the request it carries, budgets included: a rated allow's
   budget is one per (rule, subject) whichever IDs and direction spend
   it, and a spent one falls through to the next matching rule. *)
let prop_gates_match_engine =
  QCheck.Test.make ~name:"HPE gates = engine frame by frame, with budgets"
    ~count:3000
    (QCheck.make ~print:print_gate_case gate_case_gen)
    (fun (p, mode, frames) ->
      List.for_all
        (fun (gate, software) -> gate = software)
        (replay (compile_gen p) ~mode ~subjects:gate_subjects
           ~bindings:gate_bindings frames))

(* The two shapes a per-ID hardware budget gets wrong, frames at t = 0: a
   rated rule over a range holds one budget for all its IDs, on reads as
   on writes, and a strict rated rule before a loose one falls through to
   it once spent. *)
let test_gate_probe_shapes () =
  let bindings =
    [
      { Hpe_config.msg_id = 0x10; asset = "safety_critical" };
      { Hpe_config.msg_id = 0x20; asset = "safety_critical" };
    ]
  in
  let frames node write ids =
    List.map (fun id -> { node; write; id; dt = 0.0 }) ids
  in
  let granted db frames =
    let answers =
      replay db ~mode:"normal"
        ~subjects:[| "safety_critical"; "door_locks" |]
        ~bindings frames
    in
    if List.exists (fun (gate, software) -> gate <> software) answers then
      Alcotest.fail "a gate disagrees with the engine";
    List.length (List.filter fst answers)
  in
  let range =
    compile_ok
      "policy \"p\" version 1 { default deny; asset safety_critical { allow \
       write from safety_critical messages 0x10..0x20 rate 1 per 1000; allow \
       read from door_locks messages 0x10..0x20 rate 1 per 1000; } }"
  in
  let burst node write = frames node write [ 0x10; 0x20; 0x10; 0x20 ] in
  check Alcotest.int "rule over a range: one write" 1
    (granted range (burst 0 true));
  check Alcotest.int "rule over a range: one read" 1
    (granted range (burst 1 false));
  let strict_then_loose =
    compile_ok
      "policy \"p\" version 1 { default deny; asset safety_critical { allow \
       write from safety_critical messages 0x10 rate 1 per 1000; allow write \
       from safety_critical messages 0x10..0x20 rate 2 per 1000; } }"
  in
  check Alcotest.int "strict rule before a loose one: three of four" 3
    (granted strict_then_loose (frames 0 true [ 0x10; 0x10; 0x10; 0x10 ]))

(* ---------- Table.resolve ---------- *)

(* subjects s1-s3 and s4 (never named), assets a1-a2, modes m1-m2 and m3
   (never named), IDs 0-27 or none: every bucket shape, both dispatches *)
let resolve_requests =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun subject ->
          List.concat_map
            (fun asset ->
              List.concat_map
                (fun op ->
                  List.map
                    (fun msg_id -> { Ir.mode; subject; asset; op; msg_id })
                    (None :: List.init 28 Option.some))
                [ Ir.Read; Ir.Write ])
            [ "a1"; "a2" ])
        [ "s1"; "s2"; "s3"; "s4" ])
    [ "m1"; "m2"; "m3" ]

let prop_resolve_matches_decide =
  QCheck.Test.make ~name:"resolve folded over a budget oracle = decide"
    ~count:100
    QCheck.(make Gen.(pair small_policy_gen (array_repeat 64 bool)))
    (fun (p, budget) ->
      let db = compile_gen p in
      (* the oracle: which rules have budget left, the same for every call *)
      let has_budget (r : Ir.rule) = budget.(r.idx mod 64) in
      List.for_all
        (fun strategy ->
          let table = Table.compile ~strategy db in
          List.for_all
            (fun req ->
              let consumed = ref None in
              let decision, _ =
                Table.decide table
                  ~rate_admit:(fun r ->
                    has_budget r
                    && begin
                         consumed := Some r.Ir.idx;
                         true
                       end)
                  req
              in
              let res = Table.resolve table req in
              let folded, grant =
                match List.find_opt has_budget (Array.to_list res.rated) with
                | Some r -> (Ast.Allow, Some r.Ir.idx)
                | None -> (res.otherwise, None)
              in
              folded = decision && grant = !consumed
              && Array.for_all
                   (fun (r : Ir.rule) ->
                     r.decision = Ast.Allow && r.rate <> None)
                   res.rated
              && (Array.length res.rated > 0
                 || res.otherwise
                    = fst (Reference.decide (Reference.create ~strategy db) req)
                 ))
            resolve_requests)
        strategies)

(* ---------- Ast.normalise ---------- *)

(* the normaliser as it was before it returned a normal argument as is *)
let copying_normalise (p : Ast.policy) =
  let subjects = function
    | Ast.Any_subject | Ast.Subjects [] -> Ast.Any_subject
    | Ast.Subjects l -> Ast.Subjects (List.sort_uniq String.compare l)
  in
  let ranges rs =
    let sorted =
      List.sort
        (fun (a : Ast.msg_range) (b : Ast.msg_range) ->
          compare (a.lo, a.hi) (b.lo, b.hi))
        rs
    in
    let rec merge = function
      | (a : Ast.msg_range) :: (b : Ast.msg_range) :: rest ->
          if b.lo <= a.hi + 1 then
            merge ({ Ast.lo = a.lo; hi = max a.hi b.hi } :: rest)
          else a :: merge (b :: rest)
      | l -> l
    in
    merge sorted
  in
  let rule (r : Ast.rule) =
    {
      r with
      subjects = subjects r.subjects;
      messages = Option.map ranges r.messages;
    }
  in
  let block (b : Ast.asset_block) = { b with rules = List.map rule b.rules } in
  let section = function
    | Ast.Default d -> Ast.Default d
    | Ast.Modes (modes, blocks) ->
        Ast.Modes
          (List.sort_uniq String.compare modes, List.map block blocks)
    | Ast.Global b -> Ast.Global (block b)
  in
  { p with sections = List.map section p.sections }

let test_normalise_physically () =
  List.iter
    (fun (name, p) ->
      check Alcotest.bool (name ^ " is returned as is") true
        (Ast.normalise p == p))
    [
      ("baseline", Policy_map.baseline ());
      ("hardened", Policy_map.hardened ());
      ("permissive", Policy_map.permissive ());
    ];
  (* the generator never builds an empty subject list, which is not
     normal: it stands for any subject *)
  let empty =
    {
      Ast.name = "empty";
      version = 1;
      sections =
        [
          Ast.Global
            {
              Ast.asset = "a1";
              rules =
                [
                  {
                    Ast.decision = Ast.Allow;
                    op = Ast.Read;
                    subjects = Ast.Subjects [];
                    messages = None;
                    rate = None;
                  };
                ];
            };
        ];
    }
  in
  check Alcotest.bool "empty subjects normalised" true
    (Ast.normalise empty = copying_normalise empty)

let prop_normalise_idempotent_physically =
  QCheck.Test.make ~name:"normalise = copying normaliser, then a fixed point"
    ~count:300 (QCheck.make small_policy_gen) (fun p ->
      let n = Ast.normalise p in
      n = copying_normalise p && Ast.normalise n == n)

let test_proof_on_rated_policy () =
  (* the rated allow falls through to the plain allow when exhausted; the
     proof must enumerate and witness both oracle states *)
  let db =
    compile_ok
      {|
policy "rated" version 1 {
  default deny;
  asset a {
    allow write from s messages 0x10..0x1f rate 2 per 1000;
    allow write from s messages 0x18..0x2f;
    deny  write from t;
  }
}
|}
  in
  List.iter
    (fun strategy ->
      let r = Verify.analyse ~strategy db in
      check Alcotest.bool "proved" true (Verify.proved r.Verify.proof);
      check Alcotest.bool "both oracle states enumerated" true
        (r.Verify.proof.Verify.assignments > r.Verify.proof.Verify.cells))
    strategies

(* ---------- SP010 mode merging ---------- *)

let test_sp010_equivalent_modes () =
  let db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  mode day {
    asset a { allow read from s; deny write from s; }
  }
  mode night {
    asset a { deny write from s; allow read from s; }
  }
}
|}
  in
  let r = Verify.analyse db in
  check Alcotest.bool "SP010 fires" true
    (has_code Diagnostic.Mode_mergeable r.Verify.diagnostics);
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "one class" [ [ "day"; "night" ] ] r.Verify.mergeable

let test_sp010_negative () =
  (* differing semantics: no merge *)
  let differing =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  mode day   { asset a { allow read from s; } }
  mode night { asset a { deny  read from s; } }
}
|}
  in
  check Alcotest.bool "different semantics" true
    ((Verify.analyse differing).Verify.mergeable = []);
  (* identical semantics through the SAME rules: nothing to merge *)
  let co_scoped =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  mode day, night { asset a { allow read from s; } }
}
|}
  in
  check Alcotest.bool "co-scoped modes not reported" true
    ((Verify.analyse co_scoped).Verify.mergeable = [])

(* ---------- SP011 dead regions ---------- *)

let test_sp011_union_occlusion () =
  (* two denies jointly cover the allow; no single rule does, so the
     single-coverer SP004 pass cannot see it *)
  let db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  asset a {
    deny  write from s messages 0x0..0x7;
    deny  write from s messages 0x8..0xf;
    allow write from s messages 0x0..0xf;
  }
}
|}
  in
  let r = Verify.analyse ~strategy:Engine.Deny_overrides db in
  check (Alcotest.list Alcotest.int) "allow rule is dead" [ 2 ]
    r.Verify.dead_rules;
  check Alcotest.bool "SP011 fires" true
    (has_code Diagnostic.Region_empty r.Verify.diagnostics);
  (* sanity: the plain lint's SP004 misses exactly this case *)
  let diagnostics =
    Secpol_policy.Lint.run Secpol_policy.Lint.default_config db
  in
  check Alcotest.bool "SP004 misses union occlusion" false
    (has_code Diagnostic.Unreachable_rule diagnostics)

let test_sp011_negative () =
  let db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  asset a {
    deny  write from s messages 0x0..0x7;
    allow write from s messages 0x0..0xf;
  }
}
|}
  in
  let r = Verify.analyse ~strategy:Engine.Deny_overrides db in
  check (Alcotest.list Alcotest.int) "live allow survives" [] r.Verify.dead_rules

let test_sp011_rated_fallthrough_not_dead () =
  (* the unlimited allow is reachable only when the rated rule ahead of it
     is exhausted; the oracle enumeration must keep it alive *)
  let db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  asset a {
    allow write from s rate 1 per 1000;
    allow write from s;
  }
}
|}
  in
  let r = Verify.analyse ~strategy:Engine.First_match db in
  check (Alcotest.list Alcotest.int) "fallthrough allow is live" []
    r.Verify.dead_rules

(* ---------- Semantic diff ---------- *)

let prop_diff_self_empty =
  QCheck.Test.make ~name:"diff p p is always empty" ~count:80
    (QCheck.make small_policy_gen) (fun p ->
      let db = compile_gen p in
      List.for_all
        (fun strategy ->
          (Verify.diff ~strategy db db).Verify.deltas = [])
        strategies)

(* Append one allow rule on a fresh asset: under default deny the delta
   must be exactly a widening there, and the reverse diff a tightening. *)
let prop_diff_single_rule_signed =
  QCheck.Test.make ~name:"single-rule edit yields a correctly-signed delta"
    ~count:60 (QCheck.make small_policy_gen) (fun p ->
      let p = { p with Ast.sections = Ast.Default Ast.Deny :: p.Ast.sections } in
      let extra =
        Ast.Global
          {
            Ast.asset = "zfresh";
            rules =
              [
                {
                  Ast.decision = Ast.Allow;
                  op = Ast.Write;
                  subjects = Ast.Subjects [ "zsubj" ];
                  messages = None;
                  rate = None;
                };
              ];
          }
      in
      let p' = { p with Ast.sections = p.Ast.sections @ [ extra ] } in
      let old_db = compile_gen p and new_db = compile_gen p' in
      let forward = Verify.diff old_db new_db in
      let backward = Verify.diff new_db old_db in
      forward.Verify.deltas <> []
      && List.for_all
           (fun (d : Verify.delta) ->
             d.direction = Verify.Widened
             && d.cell.Verify.asset = "zfresh"
             && d.cell.Verify.subject = "zsubj")
           forward.Verify.deltas
      && Verify.count_direction Verify.Tightened forward = 0
      && backward.Verify.deltas <> []
      && Verify.count_direction Verify.Widened backward = 0)

let test_diff_flip_decision () =
  let old_db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  asset a { deny write from s messages 0x10..0x1f; }
}
|}
  in
  let new_db =
    compile_ok
      {|
policy "p" version 2 {
  default deny;
  asset a { allow write from s messages 0x10..0x1f; }
}
|}
  in
  let r = Verify.diff old_db new_db in
  check Alcotest.int "one delta" 1 (List.length r.Verify.deltas);
  let d = List.hd r.Verify.deltas in
  check Alcotest.bool "widened" true (d.Verify.direction = Verify.Widened);
  check Alcotest.bool "exact region" true
    (Region.equal d.Verify.region (Region.of_intervals (iv [ (0x10, 0x1f) ])));
  check Alcotest.bool "SP012 emitted" true
    (has_code Diagnostic.Allow_widened r.Verify.diagnostics)

let test_diff_default_change_surfaces () =
  let old_db = compile_ok {|
policy "p" version 1 { default deny; asset a { allow read from s; } }
|} in
  let new_db = compile_ok {|
policy "p" version 2 { default allow; asset a { allow read from s; } }
|} in
  let r = Verify.diff old_db new_db in
  check Alcotest.bool "default flip widens" true
    (Verify.count_direction Verify.Widened r > 0);
  check Alcotest.bool "synthetic asset sees it" true
    (List.exists
       (fun (d : Verify.delta) -> d.Verify.cell.Verify.asset = Verify.other)
       r.Verify.deltas)

let test_diff_rate_change_is_changed () =
  let old_db = compile_ok {|
policy "p" version 1 { default deny; asset a { allow write from s rate 2 per 1000; } }
|} in
  let new_db = compile_ok {|
policy "p" version 2 { default deny; asset a { allow write from s rate 5 per 100; } }
|} in
  let r = Verify.diff old_db new_db in
  check Alcotest.int "changed" 1 (Verify.count_direction Verify.Changed r);
  check Alcotest.int "not widened" 0 (Verify.count_direction Verify.Widened r)

(* ---------- Obligations ---------- *)

let threat ~attack ~legit ?(modes = [ "normal" ]) () =
  Threat.make ~id:"t1" ~title:"test threat" ~asset:"a"
    ~entry_points:[ "ep1" ] ~modes ~stride:[ Stride.Tampering ]
    ~dread:
      (Dread.make_exn ~damage:5 ~reproducibility:5 ~exploitability:5
         ~affected_users:5 ~discoverability:5)
    ~attack_operation:attack ~legitimate_operations:legit ()

let test_obligation_of_threat () =
  let o = Obligation.of_threat (threat ~attack:Threat.Write ~legit:[] ()) in
  check Alcotest.bool "not residual" false o.Obligation.residual;
  check (Alcotest.list Alcotest.string) "no exemptions" []
    o.Obligation.exempt_subjects;
  let residual =
    Obligation.of_threat
      ~subjects_of_entry_point:(fun ep -> [ ep ^ "_node" ])
      (threat ~attack:Threat.Write ~legit:[ Threat.Write; Threat.Read ] ())
  in
  check Alcotest.bool "residual" true residual.Obligation.residual;
  check (Alcotest.list Alcotest.string) "entry subjects exempted"
    [ "ep1_node" ] residual.Obligation.exempt_subjects

let test_obligation_discharged () =
  let db = compile_ok {|
policy "p" version 1 { default deny; asset a { allow read from s; } }
|} in
  let o = Obligation.of_threat (threat ~attack:Threat.Write ~legit:[] ()) in
  let r = Verify.analyse db ~obligations:[ o ] in
  check Alcotest.bool "discharged" true
    (List.for_all Verify.discharged r.Verify.obligations);
  check Alcotest.bool "no SP013" false
    (has_code Diagnostic.Threat_unmitigated r.Verify.diagnostics)

let test_obligation_violated () =
  let db = compile_ok {|
policy "p" version 1 {
  default deny;
  mode normal { asset a { allow write from s messages 0x40..0x4f; } }
}
|} in
  let o = Obligation.of_threat (threat ~attack:Threat.Write ~legit:[] ()) in
  let r = Verify.analyse db ~obligations:[ o ] in
  let status = List.hd r.Verify.obligations in
  check Alcotest.bool "violated" false (Verify.discharged status);
  let v = List.hd status.Verify.violations in
  check Alcotest.string "violating subject" "s" v.Verify.subject;
  check Alcotest.string "violating mode" "normal" v.Verify.mode;
  check Alcotest.bool "exact region" true
    (Region.equal v.Verify.region (Region.of_intervals (iv [ (0x40, 0x4f) ])));
  check Alcotest.bool "SP013 fires" true
    (has_code Diagnostic.Threat_unmitigated r.Verify.diagnostics)

let test_obligation_residual_exemption () =
  (* the exempt entry-point subject may hold the operation; anyone else
     holding it is still a violation *)
  let db = compile_ok {|
policy "p" version 1 {
  default deny;
  mode normal { asset a { allow write from trusted; } }
}
|} in
  let o =
    Obligation.of_threat
      ~subjects_of_entry_point:(fun _ -> [ "trusted" ])
      (threat ~attack:Threat.Write ~legit:[ Threat.Write ] ())
  in
  let r = Verify.analyse db ~obligations:[ o ] in
  check Alcotest.bool "exempt subject discharges" true
    (List.for_all Verify.discharged r.Verify.obligations);
  let db_leaky = compile_ok {|
policy "p" version 1 {
  default deny;
  mode normal { asset a { allow write from trusted, rogue; } }
}
|} in
  let r = Verify.analyse db_leaky ~obligations:[ o ] in
  let status = List.hd r.Verify.obligations in
  check Alcotest.bool "non-exempt subject still violates" false
    (Verify.discharged status);
  check Alcotest.string "the rogue one" "rogue"
    (List.hd status.Verify.violations).Verify.subject

(* ---------- Update gate ---------- *)

let obligation ?(modes = []) ?(exempt = []) asset operation =
  {
    Obligation.threat_id = "T-" ^ asset;
    title = "generated";
    asset;
    operation;
    modes;
    exempt_subjects = exempt;
    residual = exempt <> [];
  }

(* Denial obligations over the generator's name pools, plus names no
   generated policy mentions (a3, m3) *)
let obligations_gen =
  QCheck.Gen.(
    let sublist pool =
      map
        (fun keep -> List.filteri (fun i _ -> List.nth keep i) pool)
        (list_repeat (List.length pool) bool)
    in
    list_size (1 -- 3)
      (let* asset = oneofl [ "a1"; "a2"; "a3" ] in
       let* op = oneofl [ Threat.Read; Threat.Write ] in
       let* modes = sublist [ "m1"; "m2"; "m3" ] in
       let* exempt = sublist [ "s1"; "s2"; "s3" ] in
       return (obligation ~modes ~exempt asset op)))

let gate_case_gen =
  QCheck.Gen.triple small_policy_gen small_policy_gen obligations_gen

let gate_cases strategy (p, p', obligations) =
  let old_db = compile_gen p in
  let new_db = compile_gen p' in
  let d = Verify.diff ~strategy old_db new_db in
  (old_db, new_db, d, Verify.gate ~obligations d)

(* Over one universe a denial obligation can only fail where a widening
   already has: a (subject, mode) pair newly allowed the obligation's
   operation is a region the old version denied and the new allows. *)
let prop_gate_no_widening_no_new_violation =
  QCheck.Test.make ~name:"no widened delta never adds obligation violations"
    ~count:150 (QCheck.make gate_case_gen) (fun case ->
      List.for_all
        (fun strategy ->
          let _, _, _, g = gate_cases strategy case in
          g.Verify.widened > 0
          || g.Verify.violations_after <= g.Verify.violations_before)
        strategies)

let violations_by_analyse ~strategy (u : Verify.universe) obligations db =
  let r =
    Verify.analyse ~strategy ~modes:u.modes ~subjects:u.subjects
      ~assets:u.assets ~obligations db
  in
  List.fold_left
    (fun acc (s : Verify.obligation_status) -> acc + List.length s.violations)
    0 r.Verify.obligations

let prop_gate_counts_match_analyse =
  QCheck.Test.make ~name:"gate counts = analyse over the diff's universe"
    ~count:60 (QCheck.make gate_case_gen) (fun ((_, _, obligations) as case) ->
      List.for_all
        (fun strategy ->
          let old_db, new_db, d, g = gate_cases strategy case in
          let count =
            violations_by_analyse ~strategy d.Verify.universe obligations
          in
          g.Verify.violations_before = count old_db
          && g.Verify.violations_after = count new_db)
        strategies)

(* A deny on an unrelated asset changes no decision, but it names a new
   subject: counted over each version's own universe the old policy has
   one violating (subject, mode) pair and the new two, which would refuse
   a no-op update. *)
let test_gate_noop_update_passes () =
  let old_db =
    compile_ok
      {|
policy "p" version 1 {
  default deny;
  asset door_locks { allow write from any; }
}
|}
  in
  let new_db =
    compile_ok
      {|
policy "p" version 2 {
  default deny;
  asset door_locks { allow write from any; }
  asset engine { deny read from diag_tool; }
}
|}
  in
  let obligations =
    [ obligation ~modes:[ "normal" ] "door_locks" Threat.Write ]
  in
  let d = Verify.diff old_db new_db in
  check Alcotest.int "no delta" 0 (List.length d.Verify.deltas);
  let g = Verify.gate ~obligations d in
  check Alcotest.bool "passed" true g.Verify.passed;
  check Alcotest.(option string) "no refusal" None g.Verify.refusal;
  check Alcotest.(pair int int) "violations 2 -> 2" (2, 2)
    (g.Verify.violations_before, g.Verify.violations_after);
  let own db =
    violations_by_analyse ~strategy:Engine.Deny_overrides
      (Verify.universe db) obligations db
  in
  check Alcotest.(pair int int) "per-version universes: 1 -> 2" (1, 2)
    (own old_db, own new_db)

(* ---------- Update pairs: one edit apart ---------- *)

(* The diff and the gate skip what both versions hold alike, which two
   independently drawn policies rarely do; an update that changes one
   thing leaves almost everything alike. *)
type edit =
  | Add_rule of int * Ast.rule
  | Drop_rule of int
  | Flip_decision of int
  | Set_messages of int * Ast.msg_range list option
  | Add_rate of int * Ast.rate
  | Set_subjects of int * Ast.subjects
  | Set_modes of int * string list option  (** [None] unscopes the section *)
  | Flip_default
  | Version_bump

let edit_name = function
  | Add_rule (i, _) -> Printf.sprintf "add a rule after rule %d" i
  | Drop_rule i -> Printf.sprintf "drop rule %d" i
  | Flip_decision i -> Printf.sprintf "flip rule %d" i
  | Set_messages (i, _) -> Printf.sprintf "new messages on rule %d" i
  | Add_rate (i, _) -> Printf.sprintf "rate on rule %d" i
  | Set_subjects (i, _) -> Printf.sprintf "new subjects on rule %d" i
  | Set_modes (i, _) -> Printf.sprintf "new mode scope on section %d" i
  | Flip_default -> "flip the default"
  | Version_bump -> "version bump"

let rule_count (p : Ast.policy) =
  List.fold_left
    (fun n -> function
      | Ast.Default _ -> n
      | Ast.Global b -> n + List.length b.Ast.rules
      | Ast.Modes (_, bs) ->
          List.fold_left
            (fun n (b : Ast.asset_block) -> n + List.length b.rules)
            n bs)
    0 p.sections

(* the [n]th rule in source order replaced by [f] of it *)
let map_rule n f (p : Ast.policy) =
  let k = ref (-1) in
  let block (b : Ast.asset_block) =
    {
      b with
      rules =
        List.concat_map
          (fun r ->
            incr k;
            if !k = n then f r else [ r ])
          b.rules;
    }
  in
  {
    p with
    sections =
      List.map
        (function
          | Ast.Default _ as d -> d
          | Ast.Global b -> Ast.Global (block b)
          | Ast.Modes (ms, bs) -> Ast.Modes (ms, List.map block bs))
        p.sections;
  }

let apply_edit (p : Ast.policy) edit =
  let p = { p with version = p.version + 1 } in
  match edit with
  | Add_rule (i, r) -> map_rule i (fun old -> [ old; r ]) p
  | Drop_rule i -> map_rule i (fun _ -> []) p
  | Flip_decision i ->
      map_rule i
        (fun r ->
          match r.decision with
          | Ast.Allow -> [ { r with decision = Ast.Deny; rate = None } ]
          | Ast.Deny -> [ { r with decision = Ast.Allow } ])
        p
  | Set_messages (i, messages) ->
      map_rule i (fun r -> [ { r with messages } ]) p
  | Add_rate (i, rate) ->
      map_rule i
        (fun r ->
          let rated = { r with decision = Ast.Allow; rate = Some rate } in
          match r.decision with
          | Ast.Allow -> [ rated ]
          | Ast.Deny -> [ r; rated ])
        p
  | Set_subjects (i, subjects) ->
      map_rule i (fun r -> [ { r with subjects } ]) p
  | Set_modes (i, modes) ->
      let blocks = function
        | Ast.Global b -> [ b ]
        | Ast.Modes (_, bs) -> bs
        | Ast.Default _ -> []
      in
      {
        p with
        sections =
          List.concat
            (List.mapi
               (fun k section ->
                 if k <> i || blocks section = [] then [ section ]
                 else
                   match modes with
                   | Some ms -> [ Ast.Modes (ms, blocks section) ]
                   | None -> List.map (fun b -> Ast.Global b) (blocks section))
               p.sections);
      }
  | Flip_default ->
      let flip = function Ast.Allow -> Ast.Deny | Ast.Deny -> Ast.Allow in
      {
        p with
        sections =
          List.map
            (function Ast.Default d -> Ast.Default (flip d) | s -> s)
            p.sections;
      }
  | Version_bump -> p

let edit_gen (p : Ast.policy) =
  QCheck.Gen.(
    let rule = 0 -- (rule_count p - 1) in
    (* section 0 is the default *)
    let section = 1 -- (List.length p.sections - 1) in
    oneof
      [
        map2 (fun i r -> Add_rule (i, r)) rule rule_gen;
        map (fun i -> Drop_rule i) rule;
        map (fun i -> Flip_decision i) rule;
        map2 (fun i m -> Set_messages (i, m)) rule messages_gen;
        map2 (fun i r -> Add_rate (i, r)) rule rate_gen;
        map2 (fun i s -> Set_subjects (i, s)) rule subjects_gen;
        map2 (fun i m -> Set_modes (i, m)) section (option modes_gen);
        return Flip_default;
        return Version_bump;
      ])

let edit_case_gen =
  QCheck.Gen.(
    let* p = small_policy_gen in
    let* edit = edit_gen p in
    let* obligations = obligations_gen in
    return (p, edit, obligations))

let print_edit_case (p, edit, _) =
  Printf.sprintf "%s\n-- %s:\n%s" (Printer.to_string p) (edit_name edit)
    (Printer.to_string (apply_edit p edit))

(* The test's own class map of a cell: its rules from a plain filter over
   every rule of the db, folded by strategy and scanned in order. *)
let oracle_class_map ~strategy (db : Ir.db) (c : Verify.cell) =
  let rules =
    List.filter
      (fun (r : Ir.rule) ->
        r.asset = c.asset && List.mem c.op r.ops
        && Ir.subject_matches r.subjects c.subject
        && Ir.mode_matches r.modes c.mode)
      db.rules
  in
  let denies, allows =
    List.partition (fun (r : Ir.rule) -> r.decision = Ast.Deny) rules
  in
  let folded =
    match strategy with
    | Engine.First_match -> rules
    | Engine.Deny_overrides -> denies @ allows
    | Engine.Allow_overrides -> allows @ denies
  in
  let cls (r : Ir.rule) =
    match (r.decision, r.rate) with
    | Ast.Deny, _ -> Verify.Deny
    | Ast.Allow, None -> Verify.Allow
    | Ast.Allow, Some rate -> Verify.Rated rate
  in
  let rest, segments =
    List.fold_left
      (fun (rest, segments) (r : Ir.rule) ->
        let hit = Region.inter rest (Region.of_messages r.messages) in
        if Region.is_empty hit then (rest, segments)
        else (Region.diff rest hit, (cls r, hit) :: segments))
      (Region.full, []) folded
  in
  let default =
    match db.default with Ast.Allow -> Verify.Allow | Ast.Deny -> Verify.Deny
  in
  let segments = (default, rest) :: segments in
  List.sort_uniq compare (List.map fst segments)
  |> List.filter_map (fun k ->
         let region =
           List.fold_left
             (fun acc (k', r) -> if k' = k then Region.union acc r else acc)
             Region.empty segments
         in
         if Region.is_empty region then None else Some (k, region))

let oracle_deltas ~strategy old_db new_db (u : Verify.universe) =
  let direction before after =
    match (before, after) with
    | Verify.Deny, (Verify.Allow | Verify.Rated _)
    | Verify.Rated _, Verify.Allow ->
        Verify.Widened
    | (Verify.Allow | Verify.Rated _), Verify.Deny
    | Verify.Allow, Verify.Rated _ ->
        Verify.Tightened
    | _ -> Verify.Changed
  in
  List.concat_map
    (fun c ->
      let m_old = oracle_class_map ~strategy old_db c in
      let m_new = oracle_class_map ~strategy new_db c in
      List.concat_map
        (fun (before, r_old) ->
          List.filter_map
            (fun (after, r_new) ->
              let region = Region.inter r_old r_new in
              if before = after || Region.is_empty region then None
              else Some (c, before, after, region, direction before after))
            m_new)
        m_old)
    (Verify.cells u)

(* an obligation's violations in one db, each (mode, subject) pair from
   the oracle's own class map *)
let oracle_violations ~strategy (u : Verify.universe) obligations db =
  List.fold_left
    (fun n (o : Obligation.t) ->
      let op =
        match o.operation with Threat.Read -> Ir.Read | Threat.Write -> Ir.Write
      in
      let modes = match o.modes with [] -> u.modes | l -> l in
      let subjects =
        List.filter (fun s -> not (List.mem s o.exempt_subjects)) u.subjects
      in
      List.fold_left
        (fun n mode ->
          List.fold_left
            (fun n subject ->
              let map =
                oracle_class_map ~strategy db
                  { Verify.mode; subject; asset = o.asset; op }
              in
              if List.exists (fun (k, _) -> k <> Verify.Deny) map then n + 1
              else n)
            n subjects)
        n modes)
    0 obligations

let prop_edit_pairs_match_oracle =
  QCheck.Test.make
    ~name:"one-edit updates: deltas and gate counts = unshared oracle"
    ~count:300
    (QCheck.make ~print:print_edit_case edit_case_gen)
    (fun (p, edit, obligations) ->
      let old_db = compile_gen p and new_db = compile_gen (apply_edit p edit) in
      List.for_all
        (fun strategy ->
          let d = Verify.diff ~strategy old_db new_db in
          let g = Verify.gate ~obligations d in
          let got =
            List.map
              (fun (x : Verify.delta) ->
                (x.cell, x.before, x.after, x.region, x.direction))
              d.deltas
          in
          let count = oracle_violations ~strategy d.universe obligations in
          List.equal
            (fun (c, b, a, r, dir) (c', b', a', r', dir') ->
              c = c' && b = b' && a = a' && Region.equal r r' && dir = dir')
            got
            (oracle_deltas ~strategy old_db new_db d.universe)
          && g.violations_before = count old_db
          && g.violations_after = count new_db)
        strategies)

(* ---------- Diagnostic catalogue ---------- *)

let test_codes_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.bool "id roundtrip" true
        (Diagnostic.code_of_id (Diagnostic.id c) = Some c);
      check Alcotest.bool "slug roundtrip" true
        (Diagnostic.code_of_id (Diagnostic.slug c) = Some c))
    Diagnostic.all_codes;
  check Alcotest.int "fourteen codes" 14 (List.length Diagnostic.all_codes)

let test_explain_every_code () =
  List.iter
    (fun c ->
      check Alcotest.bool
        (Diagnostic.id c ^ " has an explanation")
        true
        (String.length (Diagnostic.explain c) > 40))
    Diagnostic.all_codes

let () =
  Alcotest.run "secpol_verify"
    [
      ( "intervals",
        [
          quick "equal" test_intervals_equal;
          quick "complement boundaries" test_intervals_complement_boundaries;
          quick "adjacent coalescing" test_intervals_adjacent_coalescing;
          quick "algebra" test_intervals_algebra;
          QCheck_alcotest.to_alcotest prop_intervals_model;
        ] );
      ( "region",
        [
          quick "of_messages" test_region_of_messages;
          quick "algebra" test_region_algebra;
          quick "witnesses" test_region_witnesses;
        ] );
      ( "partition",
        [
          quick "covers everything" test_partition_covers_everything;
          quick "strategy folding" test_partition_strategy_folding;
        ] );
      ( "proof",
        [
          QCheck_alcotest.to_alcotest prop_proof_holds;
          quick "rated oracle states" test_proof_on_rated_policy;
        ] );
      ( "hpe lists",
        [ QCheck_alcotest.to_alcotest prop_hpe_lists_match_reference ] );
      ( "hpe gates",
        [
          QCheck_alcotest.to_alcotest prop_gates_match_engine;
          quick "probe shapes" test_gate_probe_shapes;
        ] );
      ("resolve", [ QCheck_alcotest.to_alcotest prop_resolve_matches_decide ]);
      ( "normalise",
        [
          quick "as is exactly when normal" test_normalise_physically;
          QCheck_alcotest.to_alcotest prop_normalise_idempotent_physically;
        ] );
      ( "sp010",
        [
          quick "equivalent modes" test_sp010_equivalent_modes;
          quick "negatives" test_sp010_negative;
        ] );
      ( "sp011",
        [
          quick "union occlusion" test_sp011_union_occlusion;
          quick "live rule survives" test_sp011_negative;
          quick "rated fallthrough is live" test_sp011_rated_fallthrough_not_dead;
        ] );
      ( "diff",
        [
          QCheck_alcotest.to_alcotest prop_diff_self_empty;
          QCheck_alcotest.to_alcotest prop_diff_single_rule_signed;
          quick "decision flip" test_diff_flip_decision;
          quick "default change surfaces" test_diff_default_change_surfaces;
          quick "rate change is incomparable" test_diff_rate_change_is_changed;
        ] );
      ( "obligations",
        [
          quick "of_threat" test_obligation_of_threat;
          quick "discharged" test_obligation_discharged;
          quick "violated" test_obligation_violated;
          quick "residual exemption" test_obligation_residual_exemption;
        ] );
      ( "gate",
        [
          QCheck_alcotest.to_alcotest prop_gate_no_widening_no_new_violation;
          QCheck_alcotest.to_alcotest prop_gate_counts_match_analyse;
          quick "no-op update passes" test_gate_noop_update_passes;
          QCheck_alcotest.to_alcotest prop_edit_pairs_match_oracle;
        ] );
      ( "codes",
        [
          quick "roundtrip" test_codes_roundtrip;
          quick "explain" test_explain_every_code;
        ] );
    ]
