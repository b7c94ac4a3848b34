(* The measured targets, one record each in [registry]: the run that
   measures the target and returns its artifact, the artifact's file name,
   and the gates the artifact is held to (Protocol.gate).  main.exe writes
   each artifact under --out-dir and evaluates its gates against the file
   of the same name under --baseline-dir. *)

module V = Secpol_vehicle
module Policy = Secpol_policy
module Json = Policy.Json
module Can = Secpol_can
module Hpe = Secpol_hpe
module Par = Secpol_par
module Lifecycle = Secpol_lifecycle
module Serve_daemon = Secpol_serve.Daemon
module Serve_client = Secpol_serve.Client
module Faults = Secpol_faults
module Tcar = V.Topology_car
module Topology = Can.Topology

let section = Paper.section
let subsection = Paper.subsection
let json_float f = if Float.is_finite f then Json.Float f else Json.Null

(* top rung over 1-domain throughput of a domain ladder's (domains,
   throughput) runs — ratios survive a machine change, absolute req/s
   does not, which is why the trajectory gates track them *)
let top_over_one runs =
  match (List.assoc_opt 1 runs, List.rev runs) with
  | Some base, (_, top) :: _ when base > 0.0 -> Json.Float (top /. base)
  | _ -> Json.Null

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

(* One measured row of the perf suite; ns/op and minor words/op from the
   bechamel OLS fit, or from the fixed protocol for the batched rows. *)
type perf_row = { bench : string; ns_per_op : float; minor_per_op : float }

(* the rows perf's allocation gates read; bechamel prefixes its rows
   with the group name, "secpol" *)
let decide_batch_row = "policy/engine/decide_batch (car workload)"

let hpe_frame_row = "secpol/can/bus/frame across 8 HPE nodes"

let car_create_row = "secpol/vehicle/Car.create (Hpe baseline)"

let car_create_fresh_row =
  "secpol/vehicle/Car.create (Hpe baseline, hardened in turn)"

(* Minor-heap words as [Gc.minor_words] counts them.  Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], whose [minor_words] on OCaml 5
   advances only at minor collections, so a row allocating a few
   thousand words per run read 0.0. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Bechamel.Measure.instance
    (module Minor_words)
    (Bechamel.Measure.register (module Minor_words))

let print_rows rows =
  Printf.printf "%-58s %14s %14s\n" "benchmark" "ns/op" "minor w/op";
  List.iter
    (fun r ->
      Printf.printf "%-58s %14.1f %14.1f\n" r.bench r.ns_per_op r.minor_per_op)
    rows

(* [quick] trades precision for wall-clock: enough samples for a sanity
   gate in CI, not for a publishable number. *)
let run_bechamel ~quick tests =
  let open Bechamel in
  let open Toolkit in
  let limit, quota =
    if quick then (500, Time.second 0.05) else (2000, Time.second 0.5)
  in
  let cfg = Benchmark.cfg ~limit ~quota () in
  let raw =
    Benchmark.all cfg
      [ minor_words; Instance.monotonic_clock ]
      (Test.make_grouped ~name:"secpol" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan)
    | None -> Float.nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols minor_words raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) times []
    |> List.sort compare
    |> List.map (fun name ->
           {
             bench = name;
             ns_per_op = estimate times name;
             minor_per_op = estimate allocs name;
           })
  in
  print_rows rows;
  rows

(* the connected-car decision workload: every designed producer write and
   consumer read, plus the Table-I spoofed writes the policy denies *)
let car_workload () =
  let designed =
    List.concat_map
      (fun (m : V.Messages.t) ->
        let req subject op =
          {
            Policy.Ir.mode = "normal";
            subject = V.Names.asset_of_node subject;
            asset = m.asset;
            op;
            msg_id = Some m.id;
          }
        in
        List.map (fun p -> req p Policy.Ir.Write) m.producers
        @ List.map (fun c -> req c Policy.Ir.Read) m.consumers)
      V.Messages.all
  in
  let attacks =
    List.map
      (fun (m : V.Messages.t) ->
        {
          Policy.Ir.mode = "normal";
          subject = V.Names.asset_of_node V.Names.infotainment;
          asset = m.asset;
          op = Policy.Ir.Write;
          msg_id = Some m.id;
        })
      V.Messages.all
  in
  Array.of_list (designed @ attacks)

let perf ~quick =
  section "Micro-benchmarks (Bechamel, OLS ns/op)";
  let open Bechamel in
  (* HPE lookup: one hit and one miss on the bitset approved list *)
  let ids =
    List.map (fun (m : V.Messages.t) -> Can.Identifier.standard m.id) V.Messages.all
  in
  let approved = Hpe.Approved_list.of_ids ids in
  let probe = Can.Identifier.standard V.Messages.ecu_command in
  let miss = Can.Identifier.standard 0x7ff in
  let bench_bitset =
    Test.make ~name:"hpe/approved-list/bitset"
      (Staged.stage (fun () ->
           ignore (Hpe.Approved_list.mem approved probe);
           ignore (Hpe.Approved_list.mem approved miss)))
  in
  (* policy decisions: the interpreted reference scan vs the compiled
     engine, over the connected-car workload (every designed producer
     write and consumer read, plus the Table-I spoofed writes the policy
     denies) *)
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let workload = car_workload () in
  let bench_decide name decide =
    let n = Array.length workload in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           let req = workload.(!i) in
           incr i;
           if !i = n then i := 0;
           ignore (decide req)))
  in
  let bench_interpreted =
    bench_decide "policy/engine/interpreted (car workload)"
      (Policy.Reference.decide (Policy.Reference.create db))
  in
  let bench_compiled =
    bench_decide "policy/engine/compiled (car workload)"
      (Policy.Engine.decide (Policy.Engine.create db))
  in
  Format.printf "compiled table: %a@." Policy.Table.pp_stats
    (Policy.Engine.table_stats (Policy.Engine.create db));
  (* policy parsing *)
  let source = Policy.Printer.to_string (V.Policy_map.baseline ()) in
  let bench_parse =
    Test.make ~name:"policy/parse baseline source"
      (Staged.stage (fun () -> ignore (Policy.Parser.parse source)))
  in
  (* SELinux server with and without AVC *)
  let os_db =
    Secpol_selinux.Policy_db.build_exn
      ~types:[ "media_t"; "exec_t" ]
      ~rules:
        [
          Secpol_selinux.Te_rule.allow ~source:"media_t" ~target:"exec_t"
            ~cls:"file" [ "read" ];
        ]
      ()
  in
  let srv_avc = Secpol_selinux.Server.create ~avc:true os_db in
  let srv_raw = Secpol_selinux.Server.create ~avc:false os_db in
  let sctx = Secpol_selinux.Context.make ~user:"u" ~role:"r" ~type_:"media_t" in
  let tctx = Secpol_selinux.Context.make ~user:"u" ~role:"r" ~type_:"exec_t" in
  let bench_avc =
    Test.make ~name:"selinux/check (avc)"
      (Staged.stage (fun () ->
           ignore
             (Secpol_selinux.Server.check srv_avc ~source:sctx ~target:tctx
                ~cls:"file" "read")))
  in
  let bench_noavc =
    Test.make ~name:"selinux/check (no avc)"
      (Staged.stage (fun () ->
           ignore
             (Secpol_selinux.Server.check srv_raw ~source:sctx ~target:tctx
                ~cls:"file" "read")))
  in
  (* frame codec, which only Fig. 3 and the codec tests run *)
  let frame = Can.Frame.data_std V.Messages.ecu_status "\x01\x02\x03\x04" in
  let wire = Can.Frame.to_wire frame in
  let bench_encode =
    Test.make ~name:"can/frame/to_wire"
      (Staged.stage (fun () -> ignore (Can.Frame.to_wire frame)))
  in
  let bench_decode =
    Test.make ~name:"can/frame/of_wire"
      (Staged.stage (fun () -> ignore (Can.Frame.of_wire wire)))
  in
  (* what the bus pays per frame instead: the stuffed length, counted *)
  let bench_length =
    Test.make ~name:"can/frame/wire_length"
      (Staged.stage (fun () -> ignore (Can.Frame.wire_length frame)))
  in
  (* end-to-end bus step: one frame across an 8-node bus, bare and with
     a provisioned, locked HPE on every node (its write gate at the
     sender, its read gate and integrity seal at each of the 7
     receivers) *)
  let hpe_config =
    Hpe.Config.make ~read_ids:[ V.Messages.ecu_status ]
      ~write_ids:[ V.Messages.ecu_status ] ()
  in
  let bench_bus ~name ~hpe =
    Test.make ~name
      (Staged.stage
         (let sim = Secpol_sim.Engine.create () in
          let bus = Can.Bus.create ~bitrate:500_000.0 sim in
          let node name =
            let n = Can.Node.create ~name bus in
            if hpe then
              Result.get_ok
                (Hpe.Engine.provision (Hpe.Engine.install n) hpe_config);
            n
          in
          let sender = node "sender" in
          for i = 1 to 7 do
            ignore (node (Printf.sprintf "n%d" i))
          done;
          fun () ->
            ignore (Can.Node.send sender frame);
            Secpol_sim.Engine.run_until sim
              (Secpol_sim.Engine.now sim +. 0.001)))
  in
  (* the seal every HPE gate call checks (DESIGN.md §8.1), over a file
     whose budget table holds a rated ID, as the hardened car's writers'
     do *)
  let bench_seal =
    let regs = Hpe.Registers.create () in
    let rated =
      {
        hpe_config with
        Hpe.Config.budgets =
          {
            Hpe.Registers.slots =
              [| Policy.Ast.rate_limit ~count:2 ~window_ms:10_000 |];
            reads = [||];
            writes =
              [|
                ( V.Messages.ecu_status,
                  { Policy.Table.rated = [| 0 |]; otherwise = Policy.Ast.Deny }
                );
              |];
          };
      }
    in
    Result.get_ok (Hpe.Config.provision regs rated ());
    Test.make ~name:"hpe/registers/integrity_ok"
      (Staged.stage (fun () -> ignore (Hpe.Registers.integrity_ok regs)))
  in
  (* car-attack's build: every build after the first finds its policy's
     image (table, every node's HPE config in Normal and in Fail_safe),
     so it builds the ECUs and installs and provisions eight HPEs *)
  let car_policy = V.Policy_map.baseline () in
  let bench_car_create =
    Test.make ~name:"vehicle/Car.create (Hpe baseline)"
      (Staged.stage (fun () ->
           ignore (V.Car.create ~enforcement:(V.Car.Hpe car_policy) ())))
  in
  (* a build whose policy is not the last one built derives the image
     too: compile and table, and both modes' HPE configs *)
  let car_policies = [| car_policy; V.Policy_map.hardened () |] in
  let next_policy = ref 0 in
  let bench_car_create_fresh =
    Test.make ~name:"vehicle/Car.create (Hpe baseline, hardened in turn)"
      (Staged.stage (fun () ->
           next_policy := 1 - !next_policy;
           ignore
             (V.Car.create
                ~enforcement:(V.Car.Hpe car_policies.(!next_policy))
                ())))
  in
  (* the update gate (DESIGN.md §9), ungated: a fleet campaign's
     pre-flight, and what a secpold reload of the policy it already serves
     pays *)
  let baseline_db =
    V.Policy_map.compile (V.Policy_map.baseline ~version:1 ())
  in
  let hardened_db =
    V.Policy_map.compile (V.Policy_map.hardened ~version:2 ())
  in
  let bench_campaign_gate =
    Test.make ~name:"policy/verify/Campaign.gate (baseline -> hardened)"
      (Staged.stage (fun () ->
           ignore
             (Lifecycle.Campaign.gate ~old_db:baseline_db ~new_db:hardened_db
                ())))
  in
  let bench_reload_gate =
    Test.make ~name:"policy/verify/reload gate (baseline self-diff)"
      (Staged.stage (fun () ->
           ignore
             (Policy.Verify.gate
                (Policy.Verify.diff baseline_db baseline_db))))
  in
  let rows =
    run_bechamel ~quick
      [
        bench_bitset;
        bench_interpreted;
        bench_compiled;
        bench_parse;
        bench_avc;
        bench_noavc;
        bench_encode;
        bench_decode;
        bench_length;
        (* before the bus rows: after them this row read several times
           a direct probe of the seal, for reasons not yet understood *)
        bench_seal;
        bench_bus ~name:"can/bus/frame across 8 nodes" ~hpe:false;
        bench_bus ~name:"can/bus/frame across 8 HPE nodes" ~hpe:true;
        bench_car_create;
        bench_car_create_fresh;
        bench_campaign_gate;
        bench_reload_gate;
      ]
  in
  (* batched vs per-request compiled path, on the fixed protocol rather
     than bechamel: both sides get the *same* manual harness (whole-
     workload passes, repeats interleaved), so the ratio compares the two
     decision paths and not two measurement methodologies.  This is the
     ratio the trajectory gates track. *)
  subsection "Batched decision path (fixed protocol, interleaved repeats)";
  let n = Array.length workload in
  let rounds = if quick then 50 else 400 in
  let warmup, repeats = if quick then (2, 7) else (5, 21) in
  let engine_scalar = Policy.Engine.create db in
  let engine_batch = Policy.Engine.create db in
  let scalar () =
    for _ = 1 to rounds do
      for k = 0 to n - 1 do
        ignore (Policy.Engine.decide engine_scalar workload.(k))
      done
    done
  in
  let batch = Policy.Batch.create ~capacity:n () in
  Array.iter (fun req -> Policy.Batch.push batch req) workload;
  let out = Array.make n Policy.Ast.Deny in
  let batched () =
    for _ = 1 to rounds do
      Policy.Engine.decide_batch engine_batch batch ~out
    done
  in
  let ops = rounds * n in
  let per_req median_s = median_s /. float_of_int ops *. 1e9 in
  let words_per_op f =
    let w0 = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. w0) /. float_of_int ops
  in
  (* start from a compacted heap: the bechamel suite above leaves an
     unpredictable minor/major heap behind, and the scalar loop's 20 w/op
     make its GC tax sensitive to that starting state *)
  Gc.compact ();
  let scalar_s, batched_s =
    Protocol.interleave ~warmup ~repeats scalar batched
  in
  let compiled_loop =
    {
      bench = "policy/engine/compiled-loop (car workload)";
      ns_per_op = per_req (Protocol.median scalar_s);
      minor_per_op = words_per_op scalar;
    }
  in
  let decide_batch =
    {
      bench = decide_batch_row;
      ns_per_op = per_req (Protocol.median batched_s);
      minor_per_op = words_per_op batched;
    }
  in
  Printf.printf
    "protocol: %d warmup + %d timed repeats, each timing one scalar then one \
     batched run of %d passes x %d requests; medians reported\n"
    warmup repeats rounds n;
  print_rows [ compiled_loop; decide_batch ];
  (* the median of the per-repeat ratios, each from one adjacent pair *)
  let speedup = Protocol.median (Array.map2 ( /. ) scalar_s batched_s) in
  Printf.printf "batched vs per-request compiled: %.2fx\n" speedup;
  let rows = rows @ [ compiled_loop; decide_batch ] in
  (* one extra pass through an obs-registered compiled engine: bechamel
     gives the OLS mean, the histogram gives the latency distribution *)
  let obs = Secpol_obs.Registry.create () in
  let engine = Policy.Engine.create ~obs db in
  let passes = if quick then 20 else 200 in
  for _ = 1 to passes do
    Array.iter (fun req -> ignore (Policy.Engine.decide engine req)) workload
  done;
  Format.printf "compiled decide latency: %a@." Secpol_obs.Histogram.pp_summary
    (Secpol_obs.Registry.histogram obs "policy.engine.decide_ns");
  let find suffix =
    List.find_opt (fun r -> String.ends_with ~suffix r.bench) rows
  in
  let compiled_vs_interpreted =
    match
      ( find "policy/engine/interpreted (car workload)",
        find "policy/engine/compiled (car workload)" )
    with
    | Some i, Some c when c.ns_per_op > 0.0 && Float.is_finite i.ns_per_op ->
        Json.Obj
          [
            ("baseline", Json.String i.bench);
            ("fast_path", Json.String c.bench);
            ("speedup", json_float (i.ns_per_op /. c.ns_per_op));
          ]
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Int 2);
      ("suite", Json.String "secpol-perf");
      ("quick", Json.Bool quick);
      ("meta", Protocol.meta ());
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.bench);
                   ("ns_per_op", json_float r.ns_per_op);
                   ("minor_words_per_op", json_float r.minor_per_op);
                 ])
             rows) );
      ("compiled_vs_interpreted", compiled_vs_interpreted);
      ( "batched_vs_compiled",
        Json.Obj
          [
            ("baseline", Json.String compiled_loop.bench);
            ("fast_path", Json.String decide_batch.bench);
            ("baseline_ns_per_op", json_float compiled_loop.ns_per_op);
            ("fast_path_ns_per_op", json_float decide_batch.ns_per_op);
            ("speedup", json_float speedup);
          ] );
      ("telemetry", Policy.Obs_json.registry obs);
    ]

(* ------------------------------------------------------------------ *)
(* Parallel scaling                                                    *)
(* ------------------------------------------------------------------ *)

let parscale ~quick =
  section "Parallel scaling: shard-per-domain decision serving (car workload)";
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let table = Policy.Table.compile ~strategy:Policy.Table.Deny_overrides db in
  let reqs = car_workload () in
  let n = Array.length reqs in
  (* the quick size is CI's 2-vs-1 domain floor: under ~10 ms a timed run
     is mostly scheduler noise on a shared 2-core runner *)
  let total = if quick then 200_000 else 400_000 in
  (* strictly increasing timestamps so rate-limited rules are exercised
     identically across runs *)
  let work =
    Array.init total (fun k -> (float_of_int k *. 1e-3, reqs.(k mod n)))
  in
  (* the reference every run must reproduce: one engine deciding the
     whole workload in input order *)
  let expected =
    let engine = Policy.Engine.create db in
    Array.map
      (fun (now, req) -> (Policy.Engine.decide ~now engine req).decision)
      work
  in
  let ladder = [ 1; 2; 4; 8 ] in
  let repeats = if quick then 2 else 3 in
  Printf.printf
    "%d requests per run over %d distinct request shapes, partitioned by \
     subject, one secpold decide on a fresh pool (host has %d core(s));\n\
     domain ladder %s, 1 warmup + %d timed repeats per rung, median \
     throughput reported\n"
    total n
    (Domain.recommended_domain_count ())
    (String.concat "/" (List.map string_of_int ladder))
    repeats;
  Printf.printf "%-22s %12s %14s   %s\n" "configuration" "elapsed s" "req/s"
    "per-shard";
  let rung domains =
    (* each row's shard by subject, as secpold routes it, and each
       shard's rows in input order, for the fill: routing stays off the
       clock *)
    let shard_of =
      Array.map
        (fun (_, (req : Policy.Ir.request)) ->
          Par.Partition.shard_of_string ~shards:domains req.subject)
        work
    in
    let rows =
      Array.init domains (fun k ->
          Array.of_seq
            (Seq.filter (fun i -> shard_of.(i) = k) (Seq.init total Fun.id)))
    in
    let fill ~shard arena =
      Array.iter
        (fun i ->
          let now, req = work.(i) in
          Policy.Batch.push ~now arena req)
        rows.(shard)
    in
    (* a fresh pool per run, so every run starts from fresh rate budgets;
       [Pool.create] returns with every worker running, so domain startup
       stays off the clock too *)
    let run () =
      let pool = Par.Pool.create ~domains table db in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          let started = Secpol_obs.Clock.now () in
          let d =
            Par.Pool.decide pool ~n:total ~shard_of_row:(Array.get shard_of)
              ~fill ~deadline_s:infinity
          in
          (* clamped to the clock's resolution: a sub-resolution run then
             reports a conservative lower bound on throughput instead of
             an infinite one, which would poison downstream ratio gates *)
          let elapsed_s =
            Float.max
              (Secpol_obs.Clock.now () -. started)
              Secpol_obs.Clock.resolution
          in
          if d.answers <> expected || d.stalled + d.late + d.shed > 0 then begin
            Printf.eprintf
              "parscale: %d-domain decisions diverge from the in-order engine\n"
              domains;
            exit 4
          end;
          (elapsed_s, float_of_int total /. elapsed_s))
    in
    (* warmup run + [repeats] timed runs; keep the run with the median
       throughput so elapsed and throughput stay one observation *)
    ignore (run ());
    let sorted =
      List.sort
        (fun (_, a) (_, b) -> compare a b)
        (List.init repeats (fun _ -> run ()))
    in
    let elapsed_s, throughput = List.nth sorted (repeats / 2) in
    Printf.printf "%-22s %12.4f %14.0f   %s\n"
      (Printf.sprintf "%d domain(s)" domains)
      elapsed_s throughput
      (String.concat "+"
         (Array.to_list
            (Array.map (fun r -> string_of_int (Array.length r)) rows)));
    (domains, elapsed_s, throughput)
  in
  let rungs = List.map rung ladder in
  Json.Obj
    [
      ("schema", Json.Int 3);
      ("suite", Json.String "secpol-parscale");
      ("quick", Json.Bool quick);
      ("partition_key", Json.String "subject");
      ("meta", Protocol.meta ());
      ( "runs",
        Json.List
          (List.map
             (fun (domains, elapsed_s, throughput) ->
               Json.Obj
                 [
                   ("domains", Json.Int domains);
                   ("served", Json.Int total);
                   ("elapsed_s", Json.Float elapsed_s);
                   ("throughput_per_s", Json.Float throughput);
                 ])
             rungs) );
      ( "batched_scaling",
        top_over_one (List.map (fun (d, _, t) -> (d, t)) rungs) );
    ]

(* ------------------------------------------------------------------ *)
(* Topology: central vs distributed enforcement                        *)
(* ------------------------------------------------------------------ *)

(* One gate crossing of a topology drive: the segment bus it was traced
   on, the node whose HPE gate the frame crossed, in which direction, and
   whether the live car's HPE blocked it there. *)
type crossing = {
  seg : string;
  time : float;
  node : string;
  tx : bool;
  frame : Can.Frame.t;
  blocked : bool;
}

(* Every gate crossing, across every segment bus: one tx crossing per
   transmission attempt at the sender's gate, one rx crossing per
   reception at the receiver's. *)
let topo_crossings car =
  List.concat_map
    (fun seg ->
      List.map
        (fun (e : Can.Trace.entry) ->
          let crossing node tx blocked =
            { seg; time = e.time; node; tx; frame = e.frame; blocked }
          in
          match e.event with
          | Can.Trace.Tx_ok | Tx_error | Tx_abandoned ->
              crossing e.node true false
          | Tx_refused -> crossing e.node true true
          | Rx_blocked (r, gate) -> crossing r false (gate = "hpe")
          | Rx_delivered r | Rx_filtered r | Rx_line_error r ->
              crossing r false false)
        (Can.Trace.entries (Can.Bus.trace (Tcar.bus car seg))))
    (Tcar.segments car)
  |> Array.of_list

(* A bank of real HPEs, one per (node, config), installed on nodes of a
   private bus that never runs: the replay calls their gates directly.
   Each replay re-provisions every engine first, so rate budgets start
   fresh, and answers one verdict per crossing.  A node without an engine
   passes its traffic, as an unguarded ECU would. *)
let hpe_bank configs =
  let bus = Can.Bus.create ~bitrate:500_000.0 (Secpol_sim.Engine.create ()) in
  let engines = Hashtbl.create 16 in
  let bank =
    List.map
      (fun (node, cfg) ->
        let hpe = Hpe.Engine.install (Can.Node.create ~name:node bus) in
        Hashtbl.replace engines node hpe;
        (hpe, cfg))
      configs
  in
  fun crossings ->
    List.iter
      (fun (hpe, cfg) ->
        Hpe.Registers.hard_reset (Hpe.Engine.registers hpe);
        Result.iter_error failwith (Hpe.Engine.provision hpe cfg))
      bank;
    Array.map
      (fun c ->
        match Hashtbl.find_opt engines c.node with
        | None -> true
        | Some hpe when c.tx -> Hpe.Engine.gate_tx hpe ~now:c.time c.frame
        | Some hpe -> Hpe.Engine.gate_rx hpe ~now:c.time c.frame)
      crossings

let topology ~quick =
  section "Topology: enforcement placement over the four-segment car";
  let seconds = if quick then 1.0 else 2.0 in
  let warmup, repeats = if quick then (1, 5) else (3, 11) in
  let car = Tcar.create ~seed:42L ~placement:`Distributed () in
  Tcar.run car ~seconds;
  let topo = Tcar.topology car in
  subsection
    (Printf.sprintf "Per-segment load (%.1f s of benign traffic)" seconds);
  Printf.printf "%-14s %12s %10s %12s\n" "segment" "utilisation" "frames"
    "deliveries";
  let segment_rows =
    List.map
      (fun seg ->
        let bus = Tcar.bus car seg in
        let util = Can.Bus.utilisation bus in
        let frames = Can.Bus.frames_sent bus in
        let deliveries = Tcar.deliveries_in car seg in
        Printf.printf "%-14s %11.1f%% %10d %12d\n" seg (100.0 *. util) frames
          deliveries;
        Json.Obj
          [
            ("name", Json.String seg);
            ("utilisation", json_float util);
            ("frames_sent", Json.Int frames);
            ("deliveries", Json.Int deliveries);
          ])
      (Tcar.segments car)
  in
  (* Distributed placement replays EVERY gate crossing through one HPE
     per ECU; central placement evaluates only what reaches a gateway:
     each transmission is checked once per gateway attached to its
     segment, by an HPE whose reading list is that gateway's crossing
     whitelist.  Same captured traffic, the same gate code, two
     enforcement workloads. *)
  subsection "Enforcement replay: per-node HPEs vs gateway whitelists";
  let events = topo_crossings car in
  let configs =
    V.Policy_map.hpe_configs
      (Policy.Engine.table (V.Policy_map.engine (V.Policy_map.baseline ())))
      V.Modes.Normal
  in
  let guarded = List.map fst (Tcar.hpes car) in
  let distributed =
    hpe_bank (List.map (fun node -> (node, List.assoc node configs)) guarded)
  in
  let gateway_names = Topology.gateway_names topo in
  let central =
    hpe_bank
      (List.map
         (fun gw ->
           let ids =
             Topology.crossing_ids topo ~gateway:gw `A_to_b
             @ Topology.crossing_ids topo ~gateway:gw `B_to_a
             |> List.sort_uniq compare
           in
           (gw, Hpe.Config.make ~read_ids:ids ~write_ids:[] ()))
         gateway_names)
  in
  (* each transmission reaches every gateway attached to its segment *)
  let central_events =
    Array.of_list
      (List.concat_map
         (fun c ->
           if c.tx && not c.blocked then
             List.filter_map
               (fun gw ->
                 let a, b = Topology.link topo gw in
                 if a = c.seg || b = c.seg then
                   Some { c with node = gw; tx = false }
                 else None)
               gateway_names
           else [])
         (Array.to_list events))
  in
  (* self-check: at every HPE-guarded node the replay must reproduce the
     verdict the live car's gate gave the same crossing *)
  let dist_verdicts = distributed events in
  let checked = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i c ->
      if List.mem c.node guarded then begin
        incr checked;
        if dist_verdicts.(i) = c.blocked then begin
          incr mismatches;
          Format.printf "  MISMATCH t=%.6f %s %s %a: live blocked=%b@." c.time
            c.node
            (if c.tx then "tx" else "rx")
            Can.Identifier.pp c.frame.Can.Frame.id c.blocked
        end
      end)
    events;
  Printf.printf
    "self-check: replay vs live car, %d mismatches over %d guarded crossings\n"
    !mismatches !checked;
  if !mismatches > 0 then begin
    Printf.eprintf "topology: the HPE replay diverges from the live car\n";
    exit 4
  end;
  let grants verdicts =
    Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 verdicts
  in
  let dist_grants = grants dist_verdicts in
  let central_grants = grants (central central_events) in
  let per_event ~count median_s =
    if count = 0 then Float.nan else median_s /. float_of_int count *. 1e9
  in
  let dist_med, _ =
    Protocol.measure ~warmup ~repeats (fun () -> ignore (distributed events))
  in
  let central_med, _ =
    Protocol.measure ~warmup ~repeats (fun () ->
        ignore (central central_events))
  in
  let dist_ns = per_event ~count:(Array.length events) dist_med in
  let central_ns = per_event ~count:(Array.length central_events) central_med in
  let central_fraction =
    if Array.length events = 0 then 0.0
    else float_of_int (Array.length central_events)
         /. float_of_int (Array.length events)
  in
  Printf.printf "%-50s %14s %10s %8s\n" "placement" "ns/event" "events"
    "grants";
  Printf.printf "%-50s %14.1f %10d %8d\n" "distributed (one HPE per ECU)"
    dist_ns (Array.length events) dist_grants;
  Printf.printf "%-50s %14.1f %10d %8d\n" "central (one HPE per gateway)"
    central_ns
    (Array.length central_events)
    central_grants;
  Printf.printf "central evaluates %.3f of the distributed workload\n"
    central_fraction;
  (* blast containment per (plan x placement): the distributed-enforcement
     claim the trajectory gate tracks.  Deterministic for a fixed seed. *)
  subsection "Blast containment (plan x placement)";
  let horizon = if quick then 1.5 else 2.5 in
  let plans =
    [
      Faults.Plan.segment_partition ~horizon;
      Faults.Plan.segment_babble ~horizon;
    ]
  in
  let placements = [ `Central; `Distributed ] in
  let runs =
    List.concat_map
      (fun plan ->
        List.map
          (fun placement ->
            let o = Faults.Chaos.run ~placement ~seed:42L ~plan () in
            let faulted = Faults.Harness.faulted o.Faults.Chaos.harness in
            Printf.printf "  %-20s %-12s %s (blast: %s)\n"
              plan.Faults.Plan.name
              (Tcar.placement_name placement)
              (if o.Faults.Chaos.passed then "contained" else "LEAKED")
              (String.concat ", " faulted);
            (plan.Faults.Plan.name, placement, o.Faults.Chaos.passed, faulted))
          placements)
      plans
  in
  let containment =
    let n = List.length runs in
    if n = 0 then 0.0
    else
      float_of_int (List.length (List.filter (fun (_, _, p, _) -> p) runs))
      /. float_of_int n
  in
  Printf.printf "containment: %.2f of %d (plan x placement) runs\n" containment
    (List.length runs);
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("suite", Json.String "secpol-topology");
      ("quick", Json.Bool quick);
      ("meta", Protocol.meta ());
      ( "workload",
        Json.Obj
          [
            ("seconds", Json.Float seconds);
            ("events", Json.Int (Array.length events));
            ("central_events", Json.Int (Array.length central_events));
            ("segments", Json.List segment_rows);
          ] );
      ( "latency",
        Json.Obj
          [
            ("distributed_ns_per_event", json_float dist_ns);
            ("central_ns_per_event", json_float central_ns);
          ] );
      ( "checks",
        Json.Obj [ ("central_fraction", json_float central_fraction) ] );
      ( "blast",
        Json.Obj
          [
            ("containment", json_float containment);
            ("horizon", Json.Float horizon);
            ( "runs",
              Json.List
                (List.map
                   (fun (plan, placement, passed, faulted) ->
                     Json.Obj
                       [
                         ("plan", Json.String plan);
                         ( "placement",
                           Json.String (Tcar.placement_name placement) );
                         ("passed", Json.Bool passed);
                         ( "faulted_segments",
                           Json.List (List.map (fun s -> Json.String s) faulted)
                         );
                       ])
                   runs) );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Decision service                                                    *)
(* ------------------------------------------------------------------ *)

(* End-to-end cost of the daemon: wire codec + server thread +
   admission + pool hand-off + decide_batch, measured from a client over
   the Unix socket — the number a deployment actually sees, as opposed
   to parscale's in-process shard throughput.  Each rung also counts the
   minor collections of its timed batches (client and daemon share this
   process, and with worker domains alive each collection stops them
   all) and the minor words they allocate per request ([Gc.minor_words]
   counts the calling domain, which runs the client and the daemon's
   server threads: encode, decode, routing and answer; the arena fill
   runs on the workers), times one-request decides on the same open
   connection, whose latency is the hand-off alone, and times short
   sessions (connect, one decide of the batch, close), whose latency
   adds what the daemon spends taking on and letting go of a
   connection. *)
let serve ~quick =
  section "Decision service: secpold end to end over its unix socket";
  let db = Policy.Compile.compile_exn (V.Policy_map.baseline ()) in
  let reqs = car_workload () in
  let n = Array.length reqs in
  let batch = 512 in
  let batches = if quick then 20 else 200 in
  let total = batch * batches in
  let batch_reqs = Array.init batch (fun k -> reqs.(k mod n)) in
  let warmup, repeats = if quick then (1, 3) else (2, 7) in
  let singles = if quick then 200 else 2000 in
  let ladder = [ 1; 2; 4; 8 ] in
  Printf.printf
    "%d requests per timed run (%d batches x %d), one client connection;\n\
     domain ladder %s, %d warmup + %d timed repeats per rung, median \
     reported (host has %d core(s))\n"
    total batches batch
    (String.concat "/" (List.map string_of_int ladder))
    warmup repeats
    (Domain.recommended_domain_count ());
  Printf.printf "%-22s %12s %14s %16s %12s %14s %16s\n" "configuration"
    "elapsed s" "req/s" "minor GC/batch" "words/req" "1-req p50 us"
    "session p50 us";
  let rungs =
    List.map
      (fun domains ->
        let socket_path =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "secpold-bench-%d-%d.sock" (Unix.getpid ())
               domains)
        in
        let config = { Serve_daemon.default_config with socket_path; domains } in
        let daemon = Serve_daemon.start ~config db in
        Fun.protect
          ~finally:(fun () -> Serve_daemon.stop daemon)
          (fun () ->
            let client = Serve_client.connect socket_path in
            Fun.protect
              ~finally:(fun () -> Serve_client.close client)
              (fun () ->
                let collections () = (Gc.quick_stat ()).Gc.minor_collections in
                let runs = ref 0
                and timed_collections = ref 0
                and timed_words = ref 0.0 in
                let run () =
                  let before = collections () in
                  let words = Gc.minor_words () in
                  for _ = 1 to batches do
                    let b = Serve_client.decide client batch_reqs in
                    if b.Serve_client.degraded || b.Serve_client.shed then
                      failwith "serve bench: degraded or shed response"
                  done;
                  (* the warmup runs come first and are not counted *)
                  if !runs >= warmup then begin
                    timed_collections :=
                      !timed_collections + (collections () - before);
                    timed_words := !timed_words +. (Gc.minor_words () -. words)
                  end;
                  incr runs
                in
                let median_s, _ = Protocol.measure ~warmup ~repeats run in
                let throughput = float_of_int total /. median_s in
                let per_batch =
                  float_of_int !timed_collections
                  /. float_of_int (repeats * batches)
                in
                let words_per_request =
                  !timed_words /. float_of_int (repeats * total)
                in
                let one = reqs.(0) in
                let single_us =
                  Array.init singles (fun _ ->
                      let t0 = Secpol_obs.Clock.now () in
                      ignore (Serve_client.decide_one client one);
                      1e6 *. (Secpol_obs.Clock.now () -. t0))
                in
                let one_p50_us = Protocol.median single_us in
                let session_us =
                  Array.init singles (fun _ ->
                      let t0 = Secpol_obs.Clock.now () in
                      let session = Serve_client.connect socket_path in
                      ignore (Serve_client.decide session batch_reqs);
                      Serve_client.close session;
                      1e6 *. (Secpol_obs.Clock.now () -. t0))
                in
                let session_p50_us = Protocol.median session_us in
                Printf.printf
                  "%-22s %12.4f %14.0f %16.2f %12.2f %14.1f %16.1f\n"
                  (Printf.sprintf "%d domain(s)" domains)
                  median_s throughput per_batch words_per_request one_p50_us
                  session_p50_us;
                ( domains,
                  throughput,
                  Json.Obj
                    [
                      ("domains", Json.Int domains);
                      ("requests", Json.Int total);
                      ("batch", Json.Int batch);
                      ("elapsed_s", Json.Float median_s);
                      ("throughput_per_s", Json.Float throughput);
                      ("minor_collections_per_batch", Json.Float per_batch);
                      ("minor_words_per_request", Json.Float words_per_request);
                      ("decide_one_p50_us", Json.Float one_p50_us);
                      ("session_p50_us", Json.Float session_p50_us);
                    ] ))))
      ladder
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("suite", Json.String "secpol-serve");
      ("quick", Json.Bool quick);
      ("transport", Json.String "unix-socket");
      ("meta", Protocol.meta ());
      ("runs", Json.List (List.map (fun (_, _, run) -> run) rungs));
      ("scaling", top_over_one (List.map (fun (d, t, _) -> (d, t)) rungs));
    ]

(* ------------------------------------------------------------------ *)
(* Fleet campaign                                                      *)
(* ------------------------------------------------------------------ *)

let campaign ~quick =
  section "Fleet campaign: verifier-gated staged rollout under live threat";
  let module FC = Lifecycle.Campaign in
  let fleet = if quick then 20_000 else 200_000 in
  let domains = max 1 (min 8 (Domain.recommended_domain_count () - 1)) in
  let repeats = if quick then 2 else 3 in
  let cfg = FC.default_config ~fleet ~seed:42L ~domains ~quick () in
  let last = ref None in
  let run () =
    match FC.run cfg with
    | Error e -> failwith ("campaign bench: " ^ e)
    | Ok r -> last := Some r
  in
  let median_s, _ = Protocol.measure ~warmup:1 ~repeats run in
  let r = Option.get !last in
  (* the minor words a vehicle costs, read off one 1-domain run of the
     repository benchmark's campaign (10k vehicles, seed 42, quick) for
     any --quick: Gc.minor_words counts the calling domain only, and the
     count is deterministic for the seed *)
  let words_per_vehicle =
    let fleet = 10_000 in
    let cfg = FC.default_config ~fleet ~seed:42L ~domains:1 ~quick:true () in
    let before = Gc.minor_words () in
    (match FC.run cfg with
    | Error e -> failwith ("campaign bench: " ^ e)
    | Ok _ -> ());
    (Gc.minor_words () -. before) /. float_of_int fleet
  in
  Printf.printf
    "%d vehicles over %d domain(s), two shared decision tables, 1 warmup + \
     %d timed repeats\n"
    fleet domains repeats;
  Printf.printf
    "  median campaign wall time %.2f s; %d benign and probe decisions, \
     most counted per run (%.0f counted/s in the reported run)\n"
    median_s r.FC.decisions r.FC.throughput_per_s;
  Printf.printf
    "  gate %s (widened %d); ota p50 %.2f d / p99 %.2f d vs recall p50 %.2f \
     d -> %.1fx\n"
    (if r.FC.gate.FC.passed then "passed" else "REFUSED")
    r.FC.gate.FC.widened r.FC.ota.FC.p50_days r.FC.ota.FC.p99_days
    r.FC.recall.FC.p50_days r.FC.speedup_p50;
  Printf.printf "  %.1f minor words a vehicle (10k vehicles, one domain)\n"
    words_per_vehicle;
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("suite", Json.String "secpol-campaign-bench");
      ("quick", Json.Bool quick);
      ("meta", Protocol.meta ());
      ("median_elapsed_s", Json.Float median_s);
      ("minor_words_per_vehicle", Json.Float words_per_vehicle);
      ("report", FC.to_json r);
    ]

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

type record = {
  name : string;
  run : quick:bool -> Json.t;
  artifact : string;
  gates : Protocol.gate list;
}

(* in the default run order; every gate the benchmark trajectory holds *)
let registry =
  let open Protocol in
  let rung domains =
    row [ "runs" ] ~key:"domains" (Json.Int domains) "throughput_per_s"
  in
  [
    {
      name = "perf";
      run = perf;
      artifact = "BENCH_policy.json";
      gates =
        [
          (* a sanity floor, not a target: the compiled table losing to
             the interpreted reference scan always means the table is
             broken, however noisy the host *)
          gate "compiled_vs_interpreted.speedup" (Floor 1.0);
          (* the batched path's acceptance criterion, safe to gate hard:
             both sides are measured back to back in one process.  The
             baseline diff catches slower drifts the floor would miss. *)
          gate "batched_vs_compiled.speedup" (Floor 3.0);
          gate "batched_vs_compiled.speedup" (Tolerance 0.10);
          gate "decide_batch.minor_words_per_op" (Ceiling 0.0)
            ~read:
              (row [ "results" ] ~key:"name" (Json.String decide_batch_row)
                 "minor_words_per_op");
          (* one frame's eight HPE gate calls and the bus's own
             bookkeeping, with its length counted and nothing encoded or
             decoded: about 152 words, most of them the trace, the
             received lists and the event queue; the codec back on the
             frame path (43 words), or a length count or seal that
             allocates per bit or per call, breaks it *)
          gate "hpe_frame.minor_words_per_op" (Ceiling 180.0)
            ~read:
              (row [ "results" ] ~key:"name" (Json.String hpe_frame_row)
                 "minor_words_per_op");
          (* one HPE car built from the last policy built: about 6.5 k
             words, the ECUs and eight installed and provisioned HPEs; a
             build that compiles or derives a config again reads ~23 k *)
          gate "car_create.minor_words_per_op" (Ceiling 8_000.0)
            ~read:
              (row [ "results" ] ~key:"name" (Json.String car_create_row)
                 "minor_words_per_op");
          (* one HPE car built from a policy other than the last: about
             23 k words when each node's config is read off the compiled
             table in one static pass; a private engine or a rule scan per
             binding brings back the ~50 k *)
          gate "car_create_fresh.minor_words_per_op" (Ceiling 35_000.0)
            ~read:
              (row [ "results" ] ~key:"name" (Json.String car_create_fresh_row)
                 "minor_words_per_op");
        ];
    };
    {
      name = "parscale";
      run = parscale;
      artifact = "BENCH_parallel.json";
      gates =
        [
          (* a second domain that fails to break even means shard state
             leaks across domains or the partitioner funnels everything
             to one shard; on one core the ratio measures the scheduler *)
          gate "throughput 2-vs-1 domains" ~cores:2
            ~read:(ratio (rung 2) (rung 1))
            (Floor 1.0);
          (* the wide band catches a collapse, not scheduler noise; with
             fewer cores than the top rung's 8 domains the ratio is never
             a regression or a win *)
          gate "batched_scaling" ~cores:8 (Tolerance 0.60);
        ];
    };
    {
      name = "topology";
      run = topology;
      artifact = "BENCH_topology.json";
      gates =
        [
          (* both deterministic for a fixed seed (an event-count ratio
             and a pass fraction): the band survives float formatting,
             not measurement noise *)
          gate "checks.central_fraction" (Tolerance 0.10);
          gate "blast.containment" (Tolerance 0.10);
          gate "blast.containment" (Floor 1.0);
        ];
    };
    {
      name = "serve";
      run = serve;
      artifact = "BENCH_serve.json";
      gates =
        [
          (* a decide's own allocation fills a 256 k-word minor heap
             once in dozens of batches; a decoder that seeds its
             512-element columns with fresh minor-heap values forces a
             collection per column, about 5 a batch, on every rung *)
          gate "minor_collections_per_batch"
            ~read:(largest [ "runs" ] "minor_collections_per_batch")
            (Ceiling 1.0);
          (* about 1.2-1.7 words a request when each name crosses the
             wire and is decoded once and the connection's arenas are
             reused; a decoder that allocates three strings, a record
             and an option per request reads about 17 *)
          gate "minor_words_per_request"
            ~read:(largest [ "runs" ] "minor_words_per_request")
            (Ceiling 3.0);
        ];
    };
    {
      name = "campaign";
      run = campaign;
      artifact = "BENCH_campaign.json";
      gates =
        [
          (* about 75 words a vehicle when its fixed answers are counted
             per version run and its draws box nothing but their float
             results; a walk of every tick (101) or a generator that
             boxes its state on every draw (101 with the counted runs)
             breaks it *)
          gate "minor_words_per_vehicle" (Ceiling 95.0);
        ];
    };
  ]
