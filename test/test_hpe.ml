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
module Table = Secpol_policy.Table
module Ast = Secpol_policy.Ast

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

(* A locked file still accepts the idempotent CTRL rewrite.  That write
   must not reseal: it would bless an ID flipped into the list since the
   lock, and the gate would start granting it. *)
let test_hpe_locked_rewrite_keeps_seal_broken () =
  let sim = Engine.create () in
  let bus = Bus.create ~bitrate:500_000.0 sim in
  let hpe = Hpe.install (Node.create ~name:"a" bus) in
  (match
     Hpe.provision hpe (Config.make ~read_ids:[ 0x100 ] ~write_ids:[ 0x200 ] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let regs = Hpe.registers hpe in
  Approved_list.add (Registers.write_list regs) (Identifier.standard 0x0A5);
  Alcotest.(check bool) "integrity lost" false (Hpe.integrity_ok hpe);
  (match Registers.write_reg regs ~addr:Registers.ctrl 0b111 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "idempotent CTRL rewrite refused: %s" e);
  Alcotest.(check bool) "still broken after the rewrite" false
    (Hpe.integrity_ok hpe);
  let blocks = Hpe.integrity_blocks hpe in
  Alcotest.(check bool) "flipped-in id denied" false
    (Hpe.gate_tx hpe ~now:0.0 (Frame.data_std 0x0A5 ""));
  check Alcotest.int "on the integrity counter" (blocks + 1)
    (Hpe.integrity_blocks hpe)

(* The seal against a model.  The model holds the live file (both lists'
   standard and extended IDs, and the control bits) and the file as last
   sealed.  An accepted write to an unlocked file reseals the whole file,
   corruption included; a locked file accepts only its idempotent CTRL
   rewrite, which reseals nothing; a hard reset seals the empty file; an
   out-of-band add or remove changes the live file alone.  After every
   step [integrity_ok] must hold exactly when the live file equals the
   sealed one, and while it does not both gates deny every frame. *)
type file_model = { read : Id_set.t; write : Id_set.t; ctrl : int }

let empty_file = { read = Id_set.empty; write = Id_set.empty; ctrl = 0 }

(* an authorised write through the register interface *)
type register_write = Add_read of int | Add_write of int | Clear | Ctrl of int

type seal_step =
  | Write of register_write
  | Hard_reset
  | Out_of_band of [ `Read | `Write ] * [ `Add | `Remove ] * Identifier.t

let pp_seal_step = function
  | Write (Add_read v) -> Printf.sprintf "add-read 0x%x" v
  | Write (Add_write v) -> Printf.sprintf "add-write 0x%x" v
  | Write Clear -> "clear"
  | Write (Ctrl v) ->
      Printf.sprintf "ctrl 0b%d%d%d" ((v lsr 2) land 1) ((v lsr 1) land 1)
        (v land 1)
  | Hard_reset -> "hard-reset"
  | Out_of_band (list, op, id) ->
      Format.asprintf "out-of-band %s %s %a"
        (match op with `Add -> "add" | `Remove -> "remove")
        (match list with `Read -> "read" | `Write -> "write")
        Identifier.pp id

(* both ends of the bitmap as well as anywhere in it, and few extended
   raw values, so removals find what adds put there *)
let seal_std_ids = [ 0x000; 0x001; 0x3A5; 0x7F8; 0x7FE; 0x7FF ]

let seal_ext_ids = [ 0x000; 0x7FF; 0x800; 0x12345; 0x1FFFFFFF ]

let seal_step_gen =
  QCheck.Gen.(
    let std = frequency [ (3, 0 -- 0x7FF); (2, oneofl seal_std_ids) ] in
    let id =
      frequency
        [
          (3, map Identifier.standard std);
          (1, map Identifier.extended (oneofl seal_ext_ids));
        ]
    in
    frequency
      [
        (3, map (fun v -> Write (Add_read v)) std);
        (3, map (fun v -> Write (Add_write v)) std);
        (1, return (Write Clear));
        (3, map (fun v -> Write (Ctrl v)) (0 -- 7));
        (1, return Hard_reset);
        ( 5,
          map3
            (fun list op id -> Out_of_band (list, op, id))
            (oneofl [ `Read; `Write ])
            (oneofl [ `Add; `Remove ])
            id );
      ])

(* the register interface's answer to an authorised write, as the model
   sees it: the live file after an accepted write, [`Locked_rewrite] for
   the idempotent CTRL rewrite of a locked file, or [`Refused] *)
let model_write live = function
  | Ctrl v when live.ctrl land 4 <> 0 ->
      if v = live.ctrl then `Locked_rewrite else `Refused
  | _ when live.ctrl land 4 <> 0 -> `Refused
  | Add_read v -> `Accepted { live with read = Id_set.add (false, v) live.read }
  | Add_write v ->
      `Accepted { live with write = Id_set.add (false, v) live.write }
  | Clear -> `Accepted { live with read = Id_set.empty; write = Id_set.empty }
  | Ctrl v -> `Accepted { live with ctrl = v }

let address = function
  | Add_read v -> (Registers.cmd_add_read, v)
  | Add_write v -> (Registers.cmd_add_write, v)
  | Clear -> (Registers.cmd_clear, 0)
  | Ctrl v -> (Registers.ctrl, v)

let seal_step regs (live, sealed) step =
  match step with
  | Hard_reset ->
      Registers.hard_reset regs;
      (empty_file, empty_file)
  | Out_of_band (list, op, id) ->
      let target =
        match list with
        | `Read -> Registers.read_list regs
        | `Write -> Registers.write_list regs
      in
      let update =
        match op with
        | `Add ->
            Approved_list.add target id;
            Id_set.add (key id)
        | `Remove ->
            Approved_list.remove target id;
            Id_set.remove (key id)
      in
      let live =
        match list with
        | `Read -> { live with read = update live.read }
        | `Write -> { live with write = update live.write }
      in
      (live, sealed)
  | Write write -> (
      let addr, value = address write in
      match (model_write live write, Registers.write_reg regs ~addr value) with
      | `Accepted live, Ok () -> (live, live)
      | `Locked_rewrite, Ok () -> (live, sealed)
      | `Refused, Error _ -> (live, sealed)
      | (`Accepted _ | `Locked_rewrite), Error e ->
          QCheck.Test.fail_reportf "%s refused: %s" (pp_seal_step step) e
      | `Refused, Ok () ->
          QCheck.Test.fail_reportf "%s accepted by a locked file"
            (pp_seal_step step))

let seal_probe_frames live =
  let std =
    Id_set.fold
      (fun (ext, raw) acc -> if ext then acc else raw :: acc)
      (Id_set.union live.read live.write)
      seal_std_ids
  in
  List.map (fun id -> Frame.data_std id "") std
  @ List.map (fun id -> Frame.data_ext id "") seal_ext_ids

let seal_holds hpe step (live, sealed) =
  let regs = Hpe.registers hpe in
  let ids list = List.map key (Approved_list.to_ids list) in
  if
    ids (Registers.read_list regs) <> Id_set.elements live.read
    || ids (Registers.write_list regs) <> Id_set.elements live.write
    || Registers.read_reg regs ~addr:Registers.ctrl <> Ok live.ctrl
  then QCheck.Test.fail_reportf "after %s: the live file left the model" step;
  let expect =
    Id_set.equal live.read sealed.read
    && Id_set.equal live.write sealed.write
    && live.ctrl = sealed.ctrl
  in
  if Registers.integrity_ok regs <> expect then
    QCheck.Test.fail_reportf "after %s: integrity_ok is %b, the model says %b"
      step (not expect) expect;
  if not expect then begin
    let blocks = Hpe.integrity_blocks hpe in
    let frames = seal_probe_frames live in
    List.iter
      (fun frame ->
        if Hpe.gate_rx hpe ~now:0.0 frame || Hpe.gate_tx hpe ~now:0.0 frame
        then
          QCheck.Test.fail_reportf "after %s: a broken seal passed %a" step
            Identifier.pp frame.Frame.id)
      frames;
    if Hpe.integrity_blocks hpe - blocks <> 2 * List.length frames then
      QCheck.Test.fail_reportf "after %s: denials missed integrity_blocks" step
  end

let prop_seal_matches_model =
  QCheck.Test.make ~name:"seal matches a model" ~count:300
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun steps -> String.concat "; " (List.map pp_seal_step steps))
       QCheck.Gen.(list_size (0 -- 40) seal_step_gen))
    (fun steps ->
      let bus = Bus.create ~bitrate:500_000.0 (Engine.create ()) in
      let hpe = Hpe.install (Node.create ~name:"a" bus) in
      let regs = Hpe.registers hpe in
      let state = (empty_file, empty_file) in
      seal_holds hpe "install" state;
      ignore
        (List.fold_left
           (fun state step ->
             let state = seal_step regs state step in
             seal_holds hpe (pp_seal_step step) state;
             state)
           state steps);
      true)

(* ---------- Policy -> config ---------- *)

let policy_table ?(strategy = Table.Deny_overrides) src =
  match Compile.of_source src with
  | Ok db -> Table.compile ~strategy db
  | Error e -> Alcotest.fail e

(* subject ecu's lists in mode normal *)
let ecu_config table bindings =
  match Config.of_policy table ~mode:"normal" ~subjects:[ "ecu" ] ~bindings with
  | [ ("ecu", cfg) ] -> cfg
  | _ -> Alcotest.fail "expected one config, for ecu"

let rate count window_ms = Ast.rate_limit ~count ~window_ms

(* a chain that consults slot 0 alone and denies when it is spent *)
let slot0 = { Table.rated = [| 0 |]; otherwise = Ast.Deny }

let test_config_of_policy () =
  let table =
    policy_table
      "policy \"p\" version 1 { default deny; asset telemetry { allow read \
       from ecu messages 0x10..0x12; allow write from ecu messages 0x20; } }"
  in
  let bindings =
    List.map
      (fun id -> { Config.msg_id = id; asset = "telemetry" })
      [ 0x10; 0x11; 0x12; 0x20; 0x30 ]
  in
  let cfg = ecu_config table bindings in
  Alcotest.(check (list int)) "read ids" [ 0x10; 0x11; 0x12 ] cfg.Config.read_ids;
  Alcotest.(check (list int)) "write ids" [ 0x20 ] cfg.Config.write_ids;
  (* a rated allow over more IDs than its count: every binding is decided
     with a fresh budget, so all three are approved, and all three consult
     the rule's one budget *)
  let rated =
    "policy \"p\" version 1 { default deny; asset telematics { allow write \
     from ecu messages 0x100..0x102 rate 1 per 1000; } }"
  in
  let cfg =
    ecu_config (policy_table rated)
      (List.map
         (fun id -> { Config.msg_id = id; asset = "telematics" })
         [ 0x100; 0x101; 0x102 ])
  in
  Alcotest.(check (list int)) "every rated id" [ 0x100; 0x101; 0x102 ]
    cfg.Config.write_ids;
  Alcotest.(check bool) "one slot, the rule's rate" true
    (cfg.Config.budgets.slots = [| rate 1 1000 |]);
  Alcotest.(check bool) "each id chained to it" true
    (cfg.Config.budgets.writes
     = Array.map (fun id -> (id, slot0)) [| 0x100; 0x101; 0x102 |]
    && cfg.Config.budgets.reads = [||]);
  (* the lists model deny-overrides only *)
  match ecu_config (policy_table ~strategy:Table.First_match rated) [] with
  | _ -> Alcotest.fail "read lists off a first-match table"
  | exception Invalid_argument _ -> ()

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

let test_config_extracts_rates () =
  let table =
    policy_table
      "policy \"p\" version 1 { default deny; asset lock { allow write from \
       ecu messages 0x200 rate 2 per 10000; allow write from ecu messages \
       0x201; } }"
  in
  let bindings =
    [ { Config.msg_id = 0x200; asset = "lock" };
      { Config.msg_id = 0x201; asset = "lock" } ]
  in
  let cfg = ecu_config table bindings in
  Alcotest.(check (list int)) "both writable" [ 0x200; 0x201 ] cfg.Config.write_ids;
  Alcotest.(check bool) "rate extracted for 0x200" true
    (cfg.Config.budgets.slots = [| rate 2 10_000 |]
    && cfg.Config.budgets.writes = [| (0x200, slot0) |]);
  Alcotest.(check bool) "0x201 unlimited" true
    (not (Array.exists (fun (id, _) -> id = 0x201) cfg.Config.budgets.writes));
  (* a strict rule before a loose one: the chain consults both, in
     order, and a read that ends in an unrated allow keeps it *)
  let table =
    policy_table
      "policy \"p\" version 1 { default deny; asset lock { allow write from \
       ecu messages 0x200 rate 1 per 1000; allow write from ecu messages \
       0x200..0x201 rate 2 per 1000; allow read from ecu messages 0x200 rate \
       1 per 1000; allow read from ecu messages 0x200; } }"
  in
  let cfg = ecu_config table bindings in
  Alcotest.(check bool) "one slot per rule, numbered in order of use" true
    (cfg.Config.budgets.slots = [| rate 1 1000; rate 1 1000; rate 2 1000 |]);
  Alcotest.(check bool) "a read that ends in an unrated allow" true
    (cfg.Config.budgets.reads
    = [| (0x200, { Table.rated = [| 0 |]; otherwise = Ast.Allow }) |]);
  Alcotest.(check bool) "writes chain both rules, 0x201 the loose one" true
    (cfg.Config.budgets.writes
    = [|
        (0x200, { Table.rated = [| 1; 2 |]; otherwise = Ast.Deny });
        (0x201, { Table.rated = [| 2 |]; otherwise = Ast.Deny });
      |])

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
      ~budgets:
        {
          Registers.slots = [| rate 2 10_000 |];
          reads = [||];
          writes = [| (0x200, slot0) |];
        }
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

(* ---------- Per-frame gates, driven directly ---------- *)

let provisioned name config =
  let _, bus = make_net () in
  let hpe = Hpe.install (Node.create ~name bus) in
  (match Hpe.provision hpe config with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  hpe

let gate hpe ~now dir frame =
  match dir with
  | `Rx -> Hpe.gate_rx hpe ~now frame
  | `Tx -> Hpe.gate_tx hpe ~now frame

(* ---------- Budget slots, driven through the gates ---------- *)

(* an HPE approving 0x100 unrated plus [reads] and [writes], each
   direction's IDs consulting one slot of their own, [count] grants per
   [window_ms] *)
let rated_hpe ?(reads = []) ?(writes = []) count window_ms =
  let write_slot = if reads = [] then 0 else 1 in
  let chained ids slot =
    Array.of_list
      (List.map
         (fun id -> (id, { Table.rated = [| slot |]; otherwise = Ast.Deny }))
         ids)
  in
  provisioned "rated"
    (Config.make ~read_ids:(0x100 :: reads) ~write_ids:(0x100 :: writes)
       ~budgets:
         {
           Registers.slots = Array.make (write_slot + 1) (rate count window_ms);
           reads = chained reads 0;
           writes = chained writes write_slot;
         }
       ())

let test_rate_limiter_window () =
  let hpe = rated_hpe ~writes:[ 0x200 ] 2 1000 in
  let tx now id = Hpe.gate_tx hpe ~now (Frame.data_std id "") in
  Alcotest.(check bool) "unlimited id" true (tx 0.0 0x100);
  Alcotest.(check bool) "1st" true (tx 0.0 0x200);
  Alcotest.(check bool) "2nd" true (tx 0.5 0x200);
  Alcotest.(check bool) "3rd blocked" false (tx 0.9 0x200);
  Alcotest.(check bool) "window slides" true (tx 1.1 0x200);
  check Alcotest.int "one rate block" 1 (Hpe.rate_blocks hpe)

let test_rate_limiter_boundary () =
  (* the shared window semantics: a grant at time g stops counting at
     exactly g + window (inclusive expiry), on the read gate as on the
     write gate *)
  let hpe = rated_hpe ~reads:[ 0x200 ] ~writes:[ 0x200 ] 1 1000 in
  List.iter
    (fun (name, gate) ->
      let pass now = gate ~now (Frame.data_std 0x200 "") in
      Alcotest.(check bool) (name ^ ": grant at 0") true (pass 0.0);
      Alcotest.(check bool)
        (name ^ ": blocked just inside")
        false (pass 0.9999);
      Alcotest.(check bool)
        (name ^ ": admitted exactly at the boundary")
        true (pass 1.0))
    [ ("rx", Hpe.gate_rx hpe); ("tx", Hpe.gate_tx hpe) ];
  check Alcotest.int "a block on each gate" 2 (Hpe.rate_blocks hpe)

let test_rate_limiter_backwards_clock () =
  (* hardware budgets are Rate_window's: a backwards clock step keeps
     live grants blocking until their original expiry *)
  let hpe = rated_hpe ~writes:[ 0x200 ] 1 1000 in
  let tx now = Hpe.gate_tx hpe ~now (Frame.data_std 0x200 "") in
  Alcotest.(check bool) "grant at 5" true (tx 5.0);
  Alcotest.(check bool) "blocked at the regressed clock" false (tx 0.0);
  Alcotest.(check bool) "blocked just before expiry" false (tx 5.999);
  Alcotest.(check bool) "admitted once the grant expires" true (tx 6.0)

(* The budgets are sealed with the lists: grants spend them without
   breaking the seal, an out-of-band change to a slot or a chain breaks
   it, a locked file refuses a new table, and a hard reset clears the
   table and its grants.  A table the file cannot hold is refused. *)
let test_budget_table_sealed () =
  let hpe = rated_hpe ~writes:[ 0x200 ] 1 1000 in
  let regs = Hpe.registers hpe in
  let tx now = Hpe.gate_tx hpe ~now (Frame.data_std 0x200 "") in
  Alcotest.(check bool) "grant" true (tx 0.0);
  Alcotest.(check bool) "spent" false (tx 0.5);
  Alcotest.(check bool) "grants leave the seal" true (Hpe.integrity_ok hpe);
  let b = Registers.budgets regs in
  Alcotest.(check bool) "a locked file refuses a table" true
    (Result.is_error (Registers.load_budgets regs b));
  b.slots.(0) <- rate 100 1000;
  Alcotest.(check bool) "a slot is sealed" false (Hpe.integrity_ok hpe);
  Alcotest.(check bool) "and the gate fails closed" false (tx 1.5);
  b.slots.(0) <- rate 1 1000;
  Alcotest.(check bool) "undone" true (Hpe.integrity_ok hpe);
  let _, chain = b.writes.(0) in
  chain.rated.(0) <- 5;
  Alcotest.(check bool) "a chain is sealed" false (Hpe.integrity_ok hpe);
  chain.rated.(0) <- 0;
  Alcotest.(check bool) "undone again" true (Hpe.integrity_ok hpe);
  Registers.hard_reset regs;
  Alcotest.(check bool) "hard reset clears the table" true
    (Registers.budgets regs == Registers.no_budgets
    && Registers.windows regs = [||]);
  let load slots chain =
    Result.is_ok
      (Registers.load_budgets regs
         { Registers.slots; reads = [| (0x200, chain) |]; writes = [||] })
  in
  let chain slot = { Table.rated = [| slot |]; otherwise = Ast.Deny } in
  Alcotest.(check bool) "a slot and its chain" true
    (load [| rate 1 1000 |] (chain 0));
  Alcotest.(check bool) "negative count" false
    (load [| { Ast.count = -1; window_ms = 1000 } |] (chain 0));
  Alcotest.(check bool) "empty window" false
    (load [| { Ast.count = 1; window_ms = 0 } |] (chain 0));
  Alcotest.(check bool) "unknown slot" false (load [| rate 1 1000 |] (chain 1))

(* A generous budget costs what its traffic uses: [rate 1000000000 per
   1000] compiles, provisions an HPE and decides through both the policy
   engine and a fleet vehicle in well under a thousand words, where a
   ring sized to its count would take 8 GB. *)
let test_huge_budget () =
  let db =
    Result.get_ok
      (Compile.of_source
         "policy \"p\" version 1 { default deny; asset lock { allow write \
          from ecu messages 0x200 rate 1000000000 per 1000; } }")
  in
  let table = Table.compile ~strategy:Table.Deny_overrides db in
  let engine = Secpol_policy.Engine.of_table table db in
  let req =
    {
      Secpol_policy.Ir.mode = "normal";
      subject = "ecu";
      asset = "lock";
      op = Secpol_policy.Ir.Write;
      msg_id = Some 0x200;
    }
  in
  let res = Table.resolve table req in
  let vehicle = Secpol_vehicle.Instance.create ~id:0 ~version:1 () in
  let _, bus = make_net () in
  let hpe = Hpe.install (Node.create ~name:"ecu" bus) in
  let frame = Frame.data_std 0x200 "" in
  (* minor and major words both: a ring sized to the count would be
     allocated on the major heap directly *)
  let allocated () =
    Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
  in
  let words0 = allocated () in
  (match
     Hpe.provision hpe
       (ecu_config table [ { Config.msg_id = 0x200; asset = "lock" } ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let allowed = ref 0 in
  for i = 0 to 9 do
    let now = float_of_int i in
    if Hpe.gate_tx hpe ~now frame then incr allowed;
    if Secpol_policy.Engine.permitted ~now engine req then incr allowed;
    if
      Secpol_vehicle.Instance.decide vehicle res ~subject:"ecu" ~now
      = Ast.Allow
    then incr allowed
  done;
  let words = allocated () -. words0 in
  check Alcotest.int "every decision allowed" 30 !allowed;
  if words >= 1000.0 then
    Alcotest.failf "provisioning and 30 decisions allocated %.0f words" words

let gate_configs =
  [
    ( "alpha",
      Config.make
        ~budgets:
          {
            Registers.slots = [| rate 1 1000 |];
            reads = [||];
            writes = [| (0x10, slot0) |];
          }
        ~own_ids:[ 0x20 ] ~read_ids:[ 0x30; 0x31 ] ~write_ids:[ 0x10 ] () );
    ( "beta",
      Config.make ~own_ids:[ 0x30 ] ~read_ids:[ 0x10; 0x20 ]
        ~write_ids:[ 0x30; 0x31 ] () );
    (* reads back the ID it alone produces *)
    ( "gamma",
      Config.make ~own_ids:[ 0x40 ] ~read_ids:[ 0x40 ] ~write_ids:[ 0x40 ] () );
  ]

(* interleaved traffic for three guarded nodes and one alien without an
   HPE; alpha's writes exceed their budget, every guarded node sees a
   spoof attempt *)
let gate_events =
  [
    (0.0, "alpha", `Tx, 0x10);
    (0.1, "beta", `Tx, 0x30);
    (0.2, "alpha", `Tx, 0x10);
    (0.3, "beta", `Rx, 0x10);
    (0.4, "alpha", `Rx, 0x20);
    (0.5, "alien", `Tx, 0x7f);
    (0.6, "beta", `Rx, 0x30);
    (0.7, "alpha", `Rx, 0x30);
    (0.8, "beta", `Tx, 0x31);
    (0.9, "alpha", `Tx, 0x55);
    (1.0, "gamma", `Rx, 0x40);
    (1.3, "alpha", `Tx, 0x10);
  ]

let test_gate_verdicts () =
  let engines =
    List.map (fun (name, cfg) -> (name, provisioned name cfg)) gate_configs
  in
  let verdicts =
    List.filter_map
      (fun (time, node, dir, id) ->
        (* the alien has no engine, so nothing decides its frame *)
        Option.map
          (fun hpe -> gate hpe ~now:time dir (Frame.data_std id ""))
          (List.assoc_opt node engines))
      gate_events
  in
  let expect =
    [
      true (* alpha write within budget *);
      true (* beta writes its own id *);
      false (* alpha's budget is spent *);
      true (* beta reads 0x10 *);
      false (* 0x20 is alpha's own id and not on its read list *);
      false (* 0x30 is beta's own id and not on its read list *);
      true (* alpha reads 0x30 *);
      true (* beta writes 0x31 *);
      false (* 0x55 not write-approved for alpha *);
      true (* the spoof alert does not block an approved read *);
      true (* alpha's grant at 0.0 expired at 1.0 *);
    ]
  in
  Alcotest.(check (list bool)) "verdict sequence" expect verdicts;
  let engine name = List.assoc name engines in
  check Alcotest.int "rate blocked" 1 (Hpe.rate_blocks (engine "alpha"));
  check Alcotest.int "unapproved write blocked" 1
    (Hpe.write_blocks (engine "alpha"));
  check Alcotest.int "spoof alerts" 2
    (Hpe.spoof_alerts (engine "alpha") + Hpe.spoof_alerts (engine "beta"));
  check Alcotest.int "alert on an approved read" 1
    (Hpe.spoof_alerts (engine "gamma"));
  (* every frame shape the rx gate distinguishes: approved, unapproved,
     extended and spoofed own id *)
  let hpe =
    provisioned "delta"
      (Config.make ~read_ids:[ 0x100; 0x101; 0x102; 0x200 ] ~own_ids:[ 0x300 ]
         ~write_ids:[] ())
  in
  let shapes =
    List.map (Hpe.gate_rx hpe ~now:0.0)
      [
        Frame.data_std 0x100 "\x01";
        Frame.data_std 0x555 "\x02";
        Frame.data_ext 0x1abcd "\x03";
        Frame.data_std 0x200 "\x04";
        Frame.data_std 0x300 "\x05";
      ]
  in
  Alcotest.(check (list bool)) "frame shapes" [ true; false; false; true; false ]
    shapes;
  check Alcotest.int "shape grants" 2 (Hpe.read_grants hpe);
  check Alcotest.int "shape blocks" 3 (Hpe.read_blocks hpe);
  check Alcotest.int "shape spoof alert" 1 (Hpe.spoof_alerts hpe);
  (* both gates fail closed once list RAM changes out of band *)
  let hpe =
    provisioned "epsilon"
      (Config.make ~read_ids:[ 0x100 ] ~write_ids:[ 0x100 ] ())
  in
  Approved_list.add (Registers.read_list (Hpe.registers hpe))
    (Identifier.standard 0x200);
  let frame = Frame.data_std 0x100 "" in
  Alcotest.(check bool) "corrupted rx denied" false
    (Hpe.gate_rx hpe ~now:0.0 frame);
  Alcotest.(check bool) "corrupted tx denied" false
    (Hpe.gate_tx hpe ~now:0.0 frame);
  check Alcotest.int "integrity blocks" 2 (Hpe.integrity_blocks hpe)

(* On a provisioned, locked HPE with no telemetry registry, the seal and
   both gates allocate nothing: 10,000 calls add no minor-heap words to
   the measurement's own cost (bechamel's fit reads 0.1-0.4 words on such
   rows, so the words are counted directly). *)
let minor_words_of n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  Gc.minor_words () -. w0

let test_gates_allocate_nothing () =
  (* 0x200 consults a budget on each gate, one grant per 2 s *)
  let chain slot =
    (0x200, { Table.rated = [| slot |]; otherwise = Ast.Deny })
  in
  let hpe =
    provisioned "zeta"
      (Config.make ~own_ids:[ 0x3A5 ] ~read_ids:[ 0x100; 0x200 ]
         ~write_ids:[ 0x100; 0x200 ]
         ~budgets:
           {
             Registers.slots = [| rate 1 2000; rate 1 2000 |];
             reads = [| chain 0 |];
             writes = [| chain 1 |];
           }
         ())
  in
  let regs = Hpe.registers hpe in
  (* an approved ID, an own ID, an unapproved one and a rated one *)
  let frames =
    [|
      Frame.data_std 0x100 ""; Frame.data_std 0x3A5 ""; Frame.data_std 0x555 "";
      Frame.data_std 0x200 "";
    |]
  in
  (* boxed ahead of time, as a bus clock's reading is: every 0.3 s, so
     the rated ID comes up every 1.2 s and its budget alternately grants
     and refuses *)
  let nows = Array.init 10_000 (fun i -> (float_of_int i *. 0.3, ())) in
  (* the first grant sizes each slot's ring *)
  ignore (Hpe.gate_rx hpe ~now:0.0 frames.(3));
  ignore (Hpe.gate_tx hpe ~now:0.0 frames.(3));
  List.iter
    (fun (name, f) ->
      Alcotest.(check (float 0.5))
        (name ^ ": 10k calls allocate 0 words")
        (minor_words_of 0 f) (minor_words_of 10_000 f))
    [
      ("integrity_ok", fun _ -> Registers.integrity_ok regs);
      ( "gate_rx",
        fun i -> Hpe.gate_rx hpe ~now:(fst nows.(i)) frames.(i mod 4) );
      ( "gate_tx",
        fun i -> Hpe.gate_tx hpe ~now:(fst nows.(i)) frames.(i mod 4) );
    ];
  (* the calls did the work: half of each gate's frames granted by its
     list, and half of the rated ones refused by their budget *)
  check Alcotest.int "read grants" 5001 (Hpe.read_grants hpe);
  check Alcotest.int "write grants" 5001 (Hpe.write_grants hpe);
  check Alcotest.int "rate blocks" 2500 (Hpe.rate_blocks hpe);
  check Alcotest.int "spoof alerts" 2500 (Hpe.spoof_alerts hpe);
  check Alcotest.int "seal held" 0 (Hpe.integrity_blocks hpe)

(* Own IDs alert exactly on the configured standard IDs, never on an
   extended ID with the same raw value, and an own ID outside the 11-bit
   space never alerts. *)
let test_own_id_alerts () =
  let own = [ 0x000; 0x7FF; 0x3A5 ] in
  let hpe =
    provisioned "eta"
      (Config.make ~own_ids:(own @ [ 0x800; 0x1ABCD ]) ~read_ids:[]
         ~write_ids:[] ())
  in
  let alerted = ref [] in
  for id = 0x7FF downto 0 do
    let before = Hpe.spoof_alerts hpe in
    ignore (Hpe.gate_rx hpe ~now:0.0 (Frame.data_std id ""));
    if Hpe.spoof_alerts hpe > before then alerted := id :: !alerted
  done;
  Alcotest.(check (list int))
    "alerts on exactly the own standard IDs" [ 0x000; 0x3A5; 0x7FF ] !alerted;
  List.iter
    (fun raw -> ignore (Hpe.gate_rx hpe ~now:0.0 (Frame.data_ext raw "")))
    (own @ [ 0x800; 0x1ABCD ]);
  check Alcotest.int "no alert on an extended ID" 3 (Hpe.spoof_alerts hpe)

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
          QCheck_alcotest.to_alcotest prop_seal_matches_model;
        ] );
      ( "integrity",
        [
          quick "rx fails closed" test_hpe_integrity_fails_closed;
          quick "tx fails closed" test_hpe_integrity_gates_tx;
          quick "locked rewrite keeps the seal broken"
            test_hpe_locked_rewrite_keeps_seal_broken;
        ] );
      ( "config",
        [
          quick "of_policy" test_config_of_policy;
          quick "provision + lock" test_config_provision;
          quick "rate extraction" test_config_extracts_rates;
          quick "a billion-grant budget stays small" test_huge_budget;
        ] );
      ( "rate-limiter",
        [
          quick "sliding window" test_rate_limiter_window;
          quick "window boundary" test_rate_limiter_boundary;
          quick "backwards clock" test_rate_limiter_backwards_clock;
          quick "budget table sealed" test_budget_table_sealed;
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
      ( "frame gate",
        [
          quick "verdicts" test_gate_verdicts;
          quick "gates allocate nothing" test_gates_allocate_nothing;
          quick "own ids alert" test_own_id_alerts;
        ] );
    ]
