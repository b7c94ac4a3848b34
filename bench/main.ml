(* Benchmark and reproduction harness.

   One target per paper artefact (see DESIGN.md's experiment index), in
   Paper:
     table1      Table I regenerated and cross-checked against the paper
     fig1        the secure product development life-cycle pipeline
     fig2        the connected-car CAN topology and live connectivity
     fig3        the CAN node internals: transceiver -> controller -> CPU
     fig4        the CAN node with integrated HPE
     q1          attack-scenario matrix across enforcement levels
     q2          exposure window: guideline redesign vs policy update
     q3          firmware-compromise sweep: software filters vs HPE
     q4          false-block rate of derived policies on benign traffic
     ablation    design-choice ablations from DESIGN.md §7
     extension   behavioural and situational policies, spoof detection,
                 fleet integrity
   and one registry record per measured target, in Measured:
     perf        bechamel micro-benchmarks of the engines
     parscale    shard-per-domain scaling of the decision server
     topology    central vs distributed enforcement over four segments
     serve       the secpold daemon end to end over its unix socket
     campaign    the verifier-gated fleet rollout, timed

   main.exe [TARGET...] [--quick] [--out-dir DIR] [--baseline-dir DIR]

   Run all with `dune exec bench/main.exe`, or name the targets.  --quick
   trades precision for wall-clock.  --out-dir writes each measured
   target's artifact to DIR/<artifact>; --baseline-dir evaluates its gates
   against DIR/<artifact> and prints one verdict line per gate.  Without
   --baseline-dir nothing is gated.  Both directories must exist; a
   missing one is refused before any target runs.

   Exit codes: 0 ok; 1 unknown target or bad option; 4 a gate failed, a
   parscale run's decisions diverged from the in-order engine, or the
   topology replay diverged from the live car. *)

type target = Paper of (unit -> unit) | Measured of Measured.record

let targets =
  let paper = List.map (fun (name, f) -> (name, Paper f)) in
  paper Paper.artefacts
  @ List.map
      (fun (r : Measured.record) -> (r.name, Measured r))
      Measured.registry
  @ paper Paper.studies

let known () = String.concat ", " (List.map fst targets)

let usage () =
  Printf.eprintf
    "usage: main.exe [TARGET...] [--quick] [--out-dir DIR] [--baseline-dir \
     DIR]\n\
     known targets: %s\n"
    (known ());
  exit 1

let write path json =
  let oc = open_out path in
  output_string oc (Secpol_policy.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  let rec parse ((names, quick, out_dir, baseline_dir) as opts) = function
    | [] -> opts
    | "--quick" :: rest -> parse (names, true, out_dir, baseline_dir) rest
    | "--out-dir" :: dir :: rest ->
        parse (names, quick, Some dir, baseline_dir) rest
    | "--baseline-dir" :: dir :: rest ->
        parse (names, quick, out_dir, Some dir) rest
    | name :: _ when String.starts_with ~prefix:"--" name -> usage ()
    | name :: rest -> parse (name :: names, quick, out_dir, baseline_dir) rest
  in
  let names, quick, out_dir, baseline_dir =
    parse ([], false, None, None) (List.tl (Array.to_list Sys.argv))
  in
  (* a missing directory would otherwise surface only after every target
     has run *)
  List.iter
    (fun (flag, dir) ->
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir && Sys.is_directory dir) then (
            Printf.eprintf "main.exe: %s %s: no such directory\n" flag dir;
            usage ()))
        dir)
    [ ("--out-dir", out_dir); ("--baseline-dir", baseline_dir) ];
  let requested =
    match List.rev names with
    | [] -> List.map snd targets
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name targets with
            | Some t -> t
            | None ->
                Printf.eprintf "unknown bench target %S; known: %s\n" name
                  (known ());
                exit 1)
          names
  in
  let passed =
    List.fold_left
      (fun passed -> function
        | Paper f ->
            f ();
            passed
        | Measured r -> (
            let fresh = r.run ~quick in
            Option.iter
              (fun dir -> write (Filename.concat dir r.artifact) fresh)
              out_dir;
            match baseline_dir with
            | Some dir when r.gates <> [] ->
                let baseline =
                  Protocol.load_json (Filename.concat dir r.artifact)
                in
                Protocol.check ~target:r.name r.gates ~fresh ~baseline
                && passed
            | _ -> passed))
      true requested
  in
  if not passed then exit 4
