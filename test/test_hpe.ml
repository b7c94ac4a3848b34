(* Tests for the hardware policy engine: approved lists, decision block,
   register file, policy compilation and node integration. *)

module Approved_list = Secpol_hpe.Approved_list
module Decision = Secpol_hpe.Decision
module Registers = Secpol_hpe.Registers
module Config = Secpol_hpe.Config
module Hpe = Secpol_hpe.Engine
module Identifier = Secpol_can.Identifier
module Frame = Secpol_can.Frame
module Bus = Secpol_can.Bus
module Node = Secpol_can.Node
module Engine = Secpol_sim.Engine
module Compile = Secpol_policy.Compile
module PEngine = Secpol_policy.Engine
module Frame_gate = Secpol_hpe.Frame_gate

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

(* ---------- Approved lists ---------- *)

let test_list_basic () =
  let l = Approved_list.create () in
  check Alcotest.int "empty" 0 (Approved_list.cardinal l);
  Approved_list.add l (Identifier.standard 0x100);
  Approved_list.add l (Identifier.standard 0x100);
  Approved_list.add l (Identifier.extended 0x12345);
  check Alcotest.int "dedup add" 2 (Approved_list.cardinal l);
  Alcotest.(check bool) "mem std" true
    (Approved_list.mem l (Identifier.standard 0x100));
  Alcotest.(check bool) "mem ext" true
    (Approved_list.mem l (Identifier.extended 0x12345));
  Alcotest.(check bool) "format distinct" false
    (Approved_list.mem l (Identifier.extended 0x100));
  Approved_list.remove l (Identifier.standard 0x100);
  Alcotest.(check bool) "removed" false
    (Approved_list.mem l (Identifier.standard 0x100));
  check Alcotest.int "cardinal after remove" 1 (Approved_list.cardinal l);
  Approved_list.clear l;
  check Alcotest.int "cleared" 0 (Approved_list.cardinal l)

let test_list_range () =
  let l = Approved_list.create () in
  Approved_list.add_range l ~lo:0x100 ~hi:0x10F;
  check Alcotest.int "sixteen" 16 (Approved_list.cardinal l);
  Alcotest.(check bool) "in range" true (Approved_list.mem l (Identifier.standard 0x108));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Approved_list.add_range: bad 11-bit range") (fun () ->
      Approved_list.add_range l ~lo:5 ~hi:2)

let test_list_to_ids_sorted () =
  let l =
    Approved_list.of_ids
      [
        Identifier.standard 0x300;
        Identifier.extended 0x2;
        Identifier.standard 0x100;
        Identifier.extended 0x1;
      ]
  in
  let ids = Approved_list.to_ids l in
  Alcotest.(check (list int)) "sorted std then ext"
    [ 0x100; 0x300; 0x1; 0x2 ]
    (List.map Identifier.raw ids)

let id_gen =
  QCheck.Gen.(
    let* ext = bool in
    let* raw = if ext then 0 -- 0x1FFFFFFF else 0 -- 0x7FF in
    return (if ext then Identifier.extended raw else Identifier.standard raw))

(* The approved list against a model: a set of (is_extended, raw) keys,
   whose ascending order is exactly [to_ids]' order (standard IDs
   ascending, then extended ascending). *)
module Id_set = Set.Make (struct
  type t = bool * int

  let compare = compare
end)

let key id = (Identifier.is_extended id, Identifier.raw id)

let prop_matches_set_model =
  let gen =
    QCheck.Gen.(
      let* adds = list_size (0 -- 50) id_gen in
      (* removals hit approved IDs as well as absent ones *)
      let* approved =
        if adds = [] then return [] else list_size (0 -- 25) (oneofl adds)
      in
      let* absent = list_size (0 -- 10) id_gen in
      let* queries = list_size (0 -- 20) id_gen in
      return (adds, approved @ absent, queries))
  in
  QCheck.Test.make ~name:"adds then removes match a set model" ~count:200
    (QCheck.make gen) (fun (adds, removes, queries) ->
      let l = Approved_list.create () in
      List.iter (Approved_list.add l) adds;
      List.iter (Approved_list.remove l) removes;
      let model =
        List.fold_left (fun m id -> Id_set.add (key id) m) Id_set.empty adds
      in
      let model =
        List.fold_left (fun m id -> Id_set.remove (key id) m) model removes
      in
      Approved_list.cardinal l = Id_set.cardinal model
      && List.map key (Approved_list.to_ids l) = Id_set.elements model
      && List.for_all
           (fun q -> Approved_list.mem l q = Id_set.mem (key q) model)
           (adds @ removes @ queries))

let test_intervals_bulk_range () =
  (* bulk approvals: the whole 11-bit space in two ranges, an overlapping
     re-approval, then a hole punched by one removal *)
  let l = Approved_list.create () in
  Approved_list.add_range l ~lo:0x000 ~hi:0x5FF;
  Approved_list.add_range l ~lo:0x600 ~hi:0x7FF;
  check Alcotest.int "full 11-bit space" 0x800 (Approved_list.cardinal l);
  Alcotest.(check bool) "mem" true (Approved_list.mem l (Identifier.standard 0x5FF));
  (* overlapping re-approval adds only the new IDs *)
  Approved_list.add_range l ~lo:0x100 ~hi:0x1FF;
  check Alcotest.int "idempotent overlap" 0x800 (Approved_list.cardinal l);
  Approved_list.remove l (Identifier.standard 0x400);
  check Alcotest.int "range split on remove" 0x7FF (Approved_list.cardinal l);
  Alcotest.(check bool) "hole" false (Approved_list.mem l (Identifier.standard 0x400));
  Alcotest.(check bool) "neighbours intact" true
    (Approved_list.mem l (Identifier.standard 0x3FF)
    && Approved_list.mem l (Identifier.standard 0x401))

let test_intervals_to_ids () =
  let l = Approved_list.create () in
  Approved_list.add_range l ~lo:0x101 ~hi:0x103;
  Approved_list.add l (Identifier.extended 0x2);
  Approved_list.add l (Identifier.extended 0x1);
  Alcotest.(check (list int)) "expanded, std then ext"
    [ 0x101; 0x102; 0x103; 0x1; 0x2 ]
    (List.map Identifier.raw (Approved_list.to_ids l))

(* ---------- Decision block ---------- *)

let test_decision_block () =
  let l = Approved_list.of_ids [ Identifier.standard 0x100 ] in
  let d = Decision.create Decision.Reading l in
  Alcotest.(check bool) "grant" true
    (Decision.decide d (Frame.data_std 0x100 "") = Decision.Grant);
  Alcotest.(check bool) "block" true
    (Decision.decide d (Frame.data_std 0x200 "") = Decision.Block);
  check Alcotest.int "grants" 1 (Decision.grants d);
  check Alcotest.int "blocks" 1 (Decision.blocks d);
  Decision.reset_counters d;
  check Alcotest.int "reset" 0 (Decision.grants d)

let test_decision_remote_frames () =
  let l = Approved_list.of_ids [ Identifier.standard 0x100 ] in
  let d = Decision.create Decision.Writing l in
  Alcotest.(check bool) "remote judged by id" true
    (Decision.decide d (Frame.remote (Identifier.standard 0x100) ~dlc:2)
    = Decision.Grant)

(* ---------- Register file ---------- *)

let test_registers_provisioning () =
  let r = Registers.create () in
  Alcotest.(check bool) "starts unlocked" false (Registers.locked r);
  Alcotest.(check bool) "filters off" false (Registers.read_filter_enabled r);
  (match Registers.write_reg r ~addr:Registers.cmd_add_read 0x100 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Registers.read_reg r ~addr:Registers.count_read with
  | Ok 1 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "count %d" n)
  | Error e -> Alcotest.fail e);
  (match Registers.write_reg r ~addr:Registers.ctrl 0b111 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "locked" true (Registers.locked r);
  Alcotest.(check bool) "read enabled" true (Registers.read_filter_enabled r);
  Alcotest.(check bool) "write enabled" true (Registers.write_filter_enabled r)

let test_registers_lock_refuses_writes () =
  let r = Registers.create () in
  ignore (Registers.write_reg r ~addr:Registers.cmd_add_read 0x100);
  ignore (Registers.write_reg r ~addr:Registers.ctrl 0b111);
  (match Registers.write_reg r ~addr:Registers.cmd_add_read 0x200 with
  | Ok () -> Alcotest.fail "locked register accepted a write"
  | Error _ -> ());
  (match Registers.write_reg r ~addr:Registers.cmd_clear 0 with
  | Ok () -> Alcotest.fail "locked register accepted clear"
  | Error _ -> ());
  (* unlocking via CTRL is impossible: any different CTRL value is refused *)
  (match Registers.write_reg r ~addr:Registers.ctrl 0b011 with
  | Ok () -> Alcotest.fail "lock removed by CTRL write"
  | Error _ -> ());
  (* reads still work *)
  match Registers.read_reg r ~addr:Registers.count_read with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "read failed under lock"

let test_registers_validation () =
  let r = Registers.create () in
  (match Registers.write_reg r ~addr:Registers.cmd_add_read 0x800 with
  | Ok () -> Alcotest.fail "accepted out-of-range id"
  | Error _ -> ());
  (match Registers.write_reg r ~addr:Registers.status 1 with
  | Ok () -> Alcotest.fail "wrote read-only register"
  | Error _ -> ());
  (match Registers.write_reg r ~addr:0xFF 1 with
  | Ok () -> Alcotest.fail "wrote unknown register"
  | Error _ -> ());
  match Registers.read_reg r ~addr:Registers.cmd_clear with
  | Ok _ -> Alcotest.fail "read write-only register"
  | Error _ -> ()

let test_registers_hard_reset () =
  let r = Registers.create () in
  ignore (Registers.write_reg r ~addr:Registers.cmd_add_write 0x42);
  ignore (Registers.write_reg r ~addr:Registers.ctrl 0b111);
  Registers.hard_reset r;
  Alcotest.(check bool) "unlocked" false (Registers.locked r);
  check Alcotest.int "lists cleared" 0
    (Approved_list.cardinal (Registers.write_list r))

let test_registers_integrity_seal () =
  let r = Registers.create () in
  Alcotest.(check bool) "sealed at creation" true (Registers.integrity_ok r);
  ignore (Registers.write_reg r ~addr:Registers.cmd_add_read 0x100);
  ignore (Registers.write_reg r ~addr:Registers.ctrl 0b111);
  Alcotest.(check bool) "authorised writes reseal" true
    (Registers.integrity_ok r);
  (* a bit flip lands in approved-list RAM behind the register interface *)
  Approved_list.add (Registers.read_list r) (Identifier.standard 0x101);
  Alcotest.(check bool) "corruption detected" false (Registers.integrity_ok r);
  Registers.hard_reset r;
  Alcotest.(check bool) "hard reset restores the seal" true
    (Registers.integrity_ok r)

(* Every bit of both approved lists feeds the seal: toggling any single
   standard ID (0x000-0x7FF) out of band in either list breaks it, and
   undoing the toggle restores it.  A seeded sample of extended IDs gets
   the same treatment, against a file whose seal already covers a few
   extended entries, so removals are checked as well as additions. *)
let test_registers_seal_covers_every_id () =
  let r = Registers.create () in
  let cfg =
    Config.make ~read_ids:[ 0x000; 0x100; 0x3FF; 0x400; 0x7FF ]
      ~write_ids:[ 0x0A5; 0x5A0; 0x7FE ] ()
  in
  (match Config.provision r cfg ~lock:false () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let rng = Random.State.make [| 13 |] in
  let ext_sample =
    List.init 256 (fun _ -> Random.State.int rng 0x20000000)
  in
  let sealed_ext = List.filteri (fun i _ -> i mod 16 = 0) ext_sample in
  List.iter
    (fun id ->
      Approved_list.add (Registers.read_list r) (Identifier.extended id);
      Approved_list.add (Registers.write_list r) (Identifier.extended id))
    sealed_ext;
  (* rewriting CTRL unchanged is an authorised write: it reseals *)
  (match Registers.write_reg r ~addr:Registers.ctrl 0b011 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "sealed" true (Registers.integrity_ok r);
  let toggle list id =
    if Approved_list.mem list id then Approved_list.remove list id
    else Approved_list.add list id
  in
  let probe name list id =
    toggle list id;
    if Registers.integrity_ok r then
      Alcotest.failf "%s: toggling %a went unnoticed" name Identifier.pp id;
    toggle list id;
    if not (Registers.integrity_ok r) then
      Alcotest.failf "%s: undoing the %a toggle left the seal broken" name
        Identifier.pp id
  in
  for id = 0 to 0x7FF do
    probe "read list" (Registers.read_list r) (Identifier.standard id);
    probe "write list" (Registers.write_list r) (Identifier.standard id)
  done;
  List.iter
    (fun id ->
      probe "read list" (Registers.read_list r) (Identifier.extended id);
      probe "write list" (Registers.write_list r) (Identifier.extended id))
    ext_sample

let test_hpe_integrity_fails_closed () =
  let sim = Engine.create () in
  let bus = Bus.create ~bitrate:500_000.0 sim in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Approved_list.add (Registers.read_list (Hpe.registers hpe))
    (Identifier.standard 0x200);
  Alcotest.(check bool) "integrity lost" false (Hpe.integrity_ok hpe);
  (* fail closed: the corrupted engine passes nothing — not even the id the
     genuine config approved, and certainly not the one the flip added *)
  ignore (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "nothing delivered" 0 (Node.received_count b);
  check Alcotest.int "both land on the integrity counter" 2
    (Hpe.integrity_blocks hpe);
  (* re-provisioning (the scrub path) restores service *)
  Registers.hard_reset (Hpe.registers hpe);
  (match Hpe.provision hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "integrity restored" true (Hpe.integrity_ok hpe);
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.02;
  check Alcotest.int "approved traffic flows again" 1 (Node.received_count b)

let test_hpe_integrity_gates_tx () =
  let sim = Engine.create () in
  let bus = Bus.create ~bitrate:500_000.0 sim in
  let a = Node.create ~name:"a" bus in
  let _b = Node.create ~name:"b" bus in
  let hpe = Hpe.install a in
  (match Hpe.provision hpe (Config.make ~read_ids:[] ~write_ids:[ 0x100 ] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "approved write passes" true
    (Node.send a (Frame.data_std 0x100 ""));
  Approved_list.add (Registers.write_list (Hpe.registers hpe))
    (Identifier.standard 0x200);
  Alcotest.(check bool) "corrupted engine refuses writes" false
    (Node.send a (Frame.data_std 0x100 ""));
  Alcotest.(check bool) "including the flipped-in id" false
    (Node.send a (Frame.data_std 0x200 ""));
  check Alcotest.int "tx integrity blocks" 2 (Hpe.integrity_blocks hpe)

(* ---------- Policy -> config ---------- *)

let policy_engine src =
  match Compile.of_source src with
  | Ok db -> PEngine.create db
  | Error e -> Alcotest.fail e

let test_config_of_policy () =
  let engine =
    policy_engine
      "policy \"p\" version 1 { default deny; asset telemetry { allow read \
       from ecu messages 0x10..0x12; allow write from ecu messages 0x20; } }"
  in
  let bindings =
    List.map
      (fun id -> { Config.msg_id = id; asset = "telemetry" })
      [ 0x10; 0x11; 0x12; 0x20; 0x30 ]
  in
  let cfg = Config.of_policy engine ~mode:"normal" ~subject:"ecu" ~bindings in
  Alcotest.(check (list int)) "read ids" [ 0x10; 0x11; 0x12 ] cfg.Config.read_ids;
  Alcotest.(check (list int)) "write ids" [ 0x20 ] cfg.Config.write_ids

let test_config_provision () =
  let r = Registers.create () in
  let cfg = (Config.make ~read_ids:[ 0x10; 0x11 ] ~write_ids:[ 0x20 ] ()) in
  (match Config.provision r cfg () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "locked after provision" true (Registers.locked r);
  check Alcotest.int "read count" 2 (Approved_list.cardinal (Registers.read_list r));
  check Alcotest.int "write count" 1 (Approved_list.cardinal (Registers.write_list r));
  (* provisioning twice must fail: the lock holds *)
  match Config.provision r cfg () with
  | Ok () -> Alcotest.fail "provisioned over a locked register file"
  | Error _ -> ()

(* ---------- Rate limiter ---------- *)

module Rate_limiter = Secpol_hpe.Rate_limiter

let rate count window_ms = Secpol_policy.Ast.rate_limit ~count ~window_ms

let test_rate_limiter_window () =
  let rl = Rate_limiter.create () in
  Rate_limiter.set rl ~msg_id:0x200 (rate 2 1000);
  Alcotest.(check bool) "unlimited id" true (Rate_limiter.admit rl ~now:0.0 ~msg_id:0x100);
  Alcotest.(check bool) "1st" true (Rate_limiter.admit rl ~now:0.0 ~msg_id:0x200);
  Alcotest.(check bool) "2nd" true (Rate_limiter.admit rl ~now:0.5 ~msg_id:0x200);
  Alcotest.(check bool) "3rd blocked" false (Rate_limiter.admit rl ~now:0.9 ~msg_id:0x200);
  Alcotest.(check bool) "window slides" true (Rate_limiter.admit rl ~now:1.1 ~msg_id:0x200)

let test_rate_limiter_boundary () =
  (* the shared window semantics: a grant at time g stops counting at
     exactly g + window (inclusive expiry) *)
  let rl = Rate_limiter.create () in
  Rate_limiter.set rl ~msg_id:0x200 (rate 1 1000);
  Alcotest.(check bool) "grant at 0" true
    (Rate_limiter.admit rl ~now:0.0 ~msg_id:0x200);
  Alcotest.(check bool) "blocked just inside" false
    (Rate_limiter.admit rl ~now:0.9999 ~msg_id:0x200);
  Alcotest.(check bool) "admitted exactly at the boundary" true
    (Rate_limiter.admit rl ~now:1.0 ~msg_id:0x200)

let test_rate_limiter_backwards_clock () =
  (* hardware budgets inherit Rate_window's clamp: a backwards clock step
     keeps live grants blocking until their original expiry *)
  let rl = Rate_limiter.create () in
  Rate_limiter.set rl ~msg_id:0x200 (rate 1 1000);
  Alcotest.(check bool) "grant at 5" true
    (Rate_limiter.admit rl ~now:5.0 ~msg_id:0x200);
  Alcotest.(check bool) "blocked at the regressed clock" false
    (Rate_limiter.admit rl ~now:0.0 ~msg_id:0x200);
  Alcotest.(check bool) "blocked just before expiry" false
    (Rate_limiter.admit rl ~now:5.999 ~msg_id:0x200);
  Alcotest.(check bool) "admitted once the grant expires" true
    (Rate_limiter.admit rl ~now:6.0 ~msg_id:0x200)

let test_rate_limiter_config () =
  let rl = Rate_limiter.create () in
  Rate_limiter.set rl ~msg_id:1 (rate 1 100);
  Rate_limiter.set rl ~msg_id:2 (rate 5 200);
  check Alcotest.int "two limits" 2 (List.length (Rate_limiter.limits rl));
  Alcotest.(check bool) "limit lookup" true
    (Rate_limiter.limit rl ~msg_id:1 = Some (rate 1 100));
  Rate_limiter.remove rl ~msg_id:1;
  Alcotest.(check bool) "removed" true (Rate_limiter.limit rl ~msg_id:1 = None);
  ignore (Rate_limiter.admit rl ~now:0.0 ~msg_id:2);
  Rate_limiter.reset_state rl;
  (* full budget again *)
  for _ = 1 to 5 do
    Alcotest.(check bool) "fresh budget" true
      (Rate_limiter.admit rl ~now:0.0 ~msg_id:2)
  done;
  Rate_limiter.clear rl;
  check Alcotest.int "cleared" 0 (List.length (Rate_limiter.limits rl))

let test_config_extracts_rates () =
  let engine =
    policy_engine
      "policy \"p\" version 1 { default deny; asset lock { allow write from \
       ecu messages 0x200 rate 2 per 10000; allow write from ecu messages \
       0x201; } }"
  in
  let bindings =
    [ { Config.msg_id = 0x200; asset = "lock" };
      { Config.msg_id = 0x201; asset = "lock" } ]
  in
  let cfg = Config.of_policy engine ~mode:"normal" ~subject:"ecu" ~bindings in
  Alcotest.(check (list int)) "both writable" [ 0x200; 0x201 ] cfg.Config.write_ids;
  Alcotest.(check bool) "rate extracted for 0x200" true
    (List.assoc_opt 0x200 cfg.Config.write_rates = Some (rate 2 10_000));
  Alcotest.(check bool) "0x201 unlimited" true
    (List.assoc_opt 0x201 cfg.Config.write_rates = None)

(* ---------- Engine on a node ---------- *)

let make_net () =
  let sim = Engine.create () in
  let bus = Bus.create ~bitrate:500_000.0 sim in
  (sim, bus)

let test_hpe_transparent_until_enabled () =
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let _hpe = Hpe.install b in
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "passes before provisioning" 1 (Node.received_count b)

let test_hpe_read_filter () =
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "only approved delivered" 1 (Node.received_count b);
  check Alcotest.int "one read block" 1 (Hpe.read_blocks hpe);
  check Alcotest.int "one read grant" 1 (Hpe.read_grants hpe)

let test_hpe_write_filter () =
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install a in
  (match Hpe.provision hpe (Config.make ~read_ids:[] ~write_ids:[ 0x100 ] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "approved write passes" true
    (Node.send a (Frame.data_std 0x100 ""));
  Alcotest.(check bool) "unapproved write refused" false
    (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "victim only sees approved" 1 (Node.received_count b);
  check Alcotest.int "write blocks" 1 (Hpe.write_blocks hpe)

let test_hpe_survives_firmware_filter_clear () =
  (* The paper's core argument: software acceptance filters die with the
     firmware; the locked HPE does not. *)
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b =
    Node.create
      ~filters:[ Secpol_can.Acceptance.exact (Identifier.standard 0x100) ]
      ~name:"b" bus
  in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* compromised firmware clears the software filters... *)
  Secpol_can.Controller.set_filters (Node.controller b) [];
  (* ...and attempts to clear the HPE through its registers *)
  (match
     Registers.write_reg (Hpe.registers hpe) ~addr:Registers.cmd_clear 0
   with
  | Ok () -> Alcotest.fail "firmware reconfigured a locked HPE"
  | Error _ -> ());
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "HPE still blocks" 0 (Node.received_count b)

let test_hpe_unlocked_is_reconfigurable () =
  let _, bus = make_net () in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match
     Hpe.provision_unlocked hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "not locked" false (Hpe.locked hpe);
  match Registers.write_reg (Hpe.registers hpe) ~addr:Registers.cmd_clear 0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("unlocked HPE refused reconfiguration: " ^ e)

let test_hpe_write_rate_shaping () =
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install a in
  let cfg =
    Config.make ~read_ids:[] ~write_ids:[ 0x200 ]
      ~write_rates:[ (0x200, rate 2 10_000) ]
      ()
  in
  (match Hpe.provision hpe cfg with Ok () -> () | Error e -> Alcotest.fail e);
  (* a replay storm: 10 frames back to back *)
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Node.send a (Frame.data_std 0x200 "\x01") then incr accepted
  done;
  Engine.run_until sim 0.1;
  check Alcotest.int "storm shaped to the budget" 2 !accepted;
  check Alcotest.int "victim sees the budget" 2 (Node.received_count b);
  check Alcotest.int "rate blocks counted" 8 (Hpe.rate_blocks hpe);
  (* the budget recovers with time *)
  Engine.run_until sim 11.0;
  Alcotest.(check bool) "recovered" true (Node.send a (Frame.data_std 0x200 "\x01"))

(* ---------- batched rx gate / candump replay ---------- *)

let batch_config () =
  Config.make ~read_ids:[ 0x100; 0x101; 0x102; 0x200 ] ~own_ids:[ 0x300 ]
    ~write_ids:[] ()

(* every shape the rx gate distinguishes: approved, unapproved, spoofed
   (own id arriving from the bus), repeated so per-class counters move *)
let batch_ids = [| 0x100; 0x555; 0x101; 0x300; 0x200; 0x102; 0x555; 0x100 |]

let test_gate_rx_batch_matches_scalar () =
  (* scalar side: frames delivered one at a time through the simulator *)
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let scalar = Hpe.install b in
  (match Hpe.provision scalar (batch_config ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Array.iter (fun id -> ignore (Node.send a (Frame.data_std id ""))) batch_ids;
  Engine.run_until sim 0.1;
  (* batched side: same IDs as one column through an identical engine *)
  let _sim2, bus2 = make_net () in
  let b2 = Node.create ~name:"b2" bus2 in
  let batched = Hpe.install b2 in
  (match Hpe.provision batched (batch_config ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let out = Array.make (Array.length batch_ids) false in
  Hpe.gate_rx_batch batched ~ids:batch_ids ~out ();
  let accepted = Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 out in
  check Alcotest.int "accepts = scalar deliveries" (Node.received_count b)
    accepted;
  check Alcotest.int "read grants agree" (Hpe.read_grants scalar)
    (Hpe.read_grants batched);
  check Alcotest.int "read blocks agree" (Hpe.read_blocks scalar)
    (Hpe.read_blocks batched);
  check Alcotest.int "spoof alerts agree" (Hpe.spoof_alerts scalar)
    (Hpe.spoof_alerts batched);
  (* prefix form: judging only the first 3 must leave the tail untouched *)
  let out3 = Array.make 3 true in
  let before = Hpe.read_grants batched + Hpe.read_blocks batched in
  Hpe.gate_rx_batch batched ~n:3 ~ids:batch_ids ~out:out3 ();
  check Alcotest.int "n limits the sweep" (before + 3)
    (Hpe.read_grants batched + Hpe.read_blocks batched);
  Alcotest.check_raises "out too short"
    (Invalid_argument "Hpe.Engine.gate_rx_batch: out array shorter than the batch")
    (fun () -> Hpe.gate_rx_batch batched ~ids:batch_ids ~out:out3 ())

let test_gate_rx_batch_fails_closed () =
  let _sim, bus = make_net () in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (batch_config ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Approved_list.add (Registers.read_list (Hpe.registers hpe))
    (Identifier.standard 0x700);
  let out = Array.make (Array.length batch_ids) true in
  Hpe.gate_rx_batch hpe ~ids:batch_ids ~out ();
  Alcotest.(check bool) "nothing passes a corrupted file" true
    (Array.for_all not out);
  check Alcotest.int "all land on the integrity counter"
    (Array.length batch_ids)
    (Hpe.integrity_blocks hpe)

let test_replay_candump () =
  let _sim, bus = make_net () in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (batch_config ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a capture mixing standard runs with an extended frame in the middle,
     so the replay has to flush its column to keep capture order *)
  let record t frame =
    { Secpol_can.Candump.time = t; interface = "can0"; frame }
  in
  let records =
    [
      record 0.001 (Frame.data_std 0x100 "\x01");
      record 0.002 (Frame.data_std 0x555 "\x02");
      record 0.003 (Frame.data_ext 0x1abcd "\x03");
      record 0.004 (Frame.data_std 0x200 "\x04");
      record 0.005 (Frame.data_std 0x300 "\x05");
    ]
  in
  let r = Hpe.replay_candump hpe records in
  check Alcotest.int "frames" 5 r.Hpe.frames;
  check Alcotest.int "accepted + dropped = frames" 5
    (r.Hpe.accepted + r.Hpe.dropped);
  (* 0x100 and 0x200 approved; 0x555, the extended id and the spoofed
     0x300 are not *)
  check Alcotest.int "accepted" 2 r.Hpe.accepted;
  check Alcotest.int "dropped" 3 r.Hpe.dropped;
  check Alcotest.int "spoof alert recorded" 1 (Hpe.spoof_alerts hpe);
  check Alcotest.int "grants counted" 2 (Hpe.read_grants hpe);
  check Alcotest.int "blocks counted" 3 (Hpe.read_blocks hpe)

let test_hpe_uninstall () =
  let sim, bus = make_net () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let hpe = Hpe.install b in
  (match Hpe.provision hpe (Config.make ~read_ids:[] ~write_ids:[] ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Hpe.uninstall hpe;
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "gates removed" 1 (Node.received_count b)

(* ---------- Frame-gate replay ---------- *)

let gate_configs =
  let rate count window_ms = Secpol_policy.Ast.rate_limit ~count ~window_ms in
  [
    ( "alpha",
      Config.make
        ~write_rates:[ (0x10, rate 1 1000) ]
        ~own_ids:[ 0x20 ] ~read_ids:[ 0x30; 0x31 ] ~write_ids:[ 0x10 ] () );
    ( "beta",
      Config.make ~own_ids:[ 0x30 ] ~read_ids:[ 0x10; 0x20 ]
        ~write_ids:[ 0x30; 0x31 ] () );
  ]

let gate_events =
  (* interleaved traffic for two guarded nodes and one unguarded alien;
     alpha's writes exceed their budget, both nodes see a spoof attempt *)
  let e time node dir id =
    { Frame_gate.time; node; dir; id = Identifier.standard id }
  in
  [|
    e 0.0 "alpha" Frame_gate.Tx 0x10;
    e 0.1 "beta" Frame_gate.Tx 0x30;
    e 0.2 "alpha" Frame_gate.Tx 0x10;
    e 0.3 "beta" Frame_gate.Rx 0x10;
    e 0.4 "alpha" Frame_gate.Rx 0x20;
    e 0.5 "alien" Frame_gate.Tx 0x7f;
    e 0.6 "beta" Frame_gate.Rx 0x30;
    e 0.7 "alpha" Frame_gate.Rx 0x30;
    e 0.8 "beta" Frame_gate.Tx 0x31;
    e 0.9 "alpha" Frame_gate.Tx 0x55;
    e 1.3 "alpha" Frame_gate.Tx 0x10;
  |]

let test_frame_gate_verdicts () =
  let r = Frame_gate.run gate_configs gate_events in
  let expect =
    [|
      Frame_gate.Grant (* alpha write within budget *);
      Frame_gate.Grant (* beta writes its own id *);
      Frame_gate.Rate_block (* alpha's budget is spent *);
      Frame_gate.Grant (* beta reads 0x10 *);
      Frame_gate.Block (* 0x20 is alpha's own id: spoof *);
      Frame_gate.Grant (* alien node is unguarded *);
      Frame_gate.Block (* 0x30 is beta's own id: spoof *);
      Frame_gate.Grant (* alpha reads 0x30 *);
      Frame_gate.Grant (* beta writes 0x31 *);
      Frame_gate.Block (* 0x55 not write-approved for alpha *);
      Frame_gate.Grant (* alpha's grant at 0.0 expired at 1.0 *);
    |]
  in
  Alcotest.(check bool) "verdict sequence" true (r.Frame_gate.verdicts = expect);
  check Alcotest.int "granted" 7 r.Frame_gate.stats.granted;
  check Alcotest.int "blocked" 3 r.Frame_gate.stats.blocked;
  check Alcotest.int "rate blocked" 1 r.Frame_gate.stats.rate_blocked;
  let counter name =
    Secpol_obs.Counter.value
      (Secpol_obs.Registry.counter r.Frame_gate.registry ("hpe.gate." ^ name))
  in
  check Alcotest.int "spoof counter" 2 (counter "spoof_blocked");
  check Alcotest.int "unguarded counter" 1 (counter "unguarded")

let () =
  Alcotest.run "secpol_hpe"
    [
      ( "approved-list",
        [
          quick "bitset basics" test_list_basic;
          quick "ranges" test_list_range;
          quick "intervals bulk ranges" test_intervals_bulk_range;
          quick "intervals to_ids" test_intervals_to_ids;
          quick "to_ids sorted" test_list_to_ids_sorted;
          QCheck_alcotest.to_alcotest prop_matches_set_model;
        ] );
      ( "decision",
        [
          quick "grant/block + counters" test_decision_block;
          quick "remote frames" test_decision_remote_frames;
        ] );
      ( "registers",
        [
          quick "provisioning" test_registers_provisioning;
          quick "lock refuses writes" test_registers_lock_refuses_writes;
          quick "validation" test_registers_validation;
          quick "hard reset" test_registers_hard_reset;
          quick "integrity seal" test_registers_integrity_seal;
          quick "seal covers every id" test_registers_seal_covers_every_id;
        ] );
      ( "integrity",
        [
          quick "rx fails closed" test_hpe_integrity_fails_closed;
          quick "tx fails closed" test_hpe_integrity_gates_tx;
        ] );
      ( "config",
        [
          quick "of_policy" test_config_of_policy;
          quick "provision + lock" test_config_provision;
          quick "rate extraction" test_config_extracts_rates;
        ] );
      ( "rate-limiter",
        [
          quick "sliding window" test_rate_limiter_window;
          quick "window boundary" test_rate_limiter_boundary;
          quick "backwards clock" test_rate_limiter_backwards_clock;
          quick "configuration" test_rate_limiter_config;
          quick "write shaping on a node" test_hpe_write_rate_shaping;
        ] );
      ( "engine",
        [
          quick "transparent until enabled" test_hpe_transparent_until_enabled;
          quick "read filter" test_hpe_read_filter;
          quick "write filter" test_hpe_write_filter;
          quick "survives firmware compromise"
            test_hpe_survives_firmware_filter_clear;
          quick "unlocked reconfigurable" test_hpe_unlocked_is_reconfigurable;
          quick "uninstall" test_hpe_uninstall;
        ] );
      ( "batched",
        [
          quick "gate_rx_batch matches the scalar gate"
            test_gate_rx_batch_matches_scalar;
          quick "gate_rx_batch fails closed on corruption"
            test_gate_rx_batch_fails_closed;
          quick "candump replay" test_replay_candump;
        ] );
      ("frame gate", [ quick "verdicts" test_frame_gate_verdicts ]);
    ]
