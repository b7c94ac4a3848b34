(* threatctl: threat-model inspection and policy derivation.

   Operates on the built-in connected-car model (paper Table I).

   Subcommands:
     report   full security-model document as Markdown
     table    the threat table only
     matrix   the likelihood/impact risk matrix
     rank     threats by DREAD average
     derive   derive and print the least-privilege policy
     show     one threat in detail
*)

module Threat = Secpol.Threat
module V = Secpol.Vehicle
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* every inspection command takes --file to work on a user-authored model;
   the built-in car model (paper Table I) is the default *)
let model_arg =
  Arg.(value & opt (some file) None
       & info [ "f"; "file" ] ~docv:"MODEL"
           ~doc:"Threat-model file (Model_format); defaults to the built-in \
                 connected-car model.")

let load_model = function
  | None -> V.Threat_catalog.model ()
  | Some path -> (
      match Threat.Model_format.parse (read_file path) with
      | Ok m -> m
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 1)

let report_cmd =
  let run file =
    print_string (Threat.Report.markdown (load_model file));
    0
  in
  Cmd.v (Cmd.info "report" ~doc:"Full security-model document (Markdown).")
    Term.(const run $ model_arg)

let table_cmd =
  let run file =
    print_string (Threat.Report.threat_table (load_model file));
    0
  in
  Cmd.v (Cmd.info "table" ~doc:"The threat table (Markdown).")
    Term.(const run $ model_arg)

let matrix_cmd =
  let run file =
    Format.printf "%a" Threat.Risk.pp_matrix (load_model file).Threat.Model.threats;
    0
  in
  Cmd.v (Cmd.info "matrix" ~doc:"Likelihood/impact risk matrix.")
    Term.(const run $ model_arg)

let rank_cmd =
  let run file top =
    let threats = Threat.Risk.rank (load_model file).Threat.Model.threats in
    let threats =
      match top with None -> threats | Some n -> Threat.Risk.top n threats
    in
    List.iteri
      (fun i t ->
        Format.printf "%2d. %-40s %.1f (%s)@." (i + 1) t.Threat.Threat.id
          (Threat.Threat.risk t)
          (Threat.Dread.rating_name (Threat.Threat.rating t)))
      threats;
    0
  in
  let top =
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"N" ~doc:"Only the N highest.")
  in
  Cmd.v (Cmd.info "rank" ~doc:"Threats ranked by DREAD average.")
    Term.(const run $ model_arg $ top)

let derive_cmd =
  let run file version =
    let report = Secpol.Pipeline.derive ~version (load_model file) in
    print_string report.Secpol.Pipeline.bundle.Secpol.Policy.Update.source;
    Format.eprintf "%a@." Secpol.Pipeline.pp_report report;
    0
  in
  let version =
    Arg.(
      value & opt int 1
      & info [ "policy-version" ] ~docv:"V"
          ~doc:"Version of the derived policy.")
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Derive the least-privilege policy (source on stdout, report on stderr).")
    Term.(const run $ model_arg $ version)

let show_cmd =
  let run id =
    match V.Threat_catalog.find id with
    | None ->
        Printf.eprintf "unknown threat %S\n" id;
        1
    | Some row ->
        let t = row.V.Threat_catalog.threat in
        Format.printf "id:          %s@." t.Threat.Threat.id;
        Format.printf "title:       %s@." t.Threat.Threat.title;
        Format.printf "description: %s@." t.Threat.Threat.description;
        Format.printf "asset:       %s@." t.Threat.Threat.asset;
        Format.printf "entry:       %s@."
          (String.concat ", " t.Threat.Threat.entry_points);
        Format.printf "modes:       %s@." (String.concat ", " t.Threat.Threat.modes);
        Format.printf "STRIDE:      %s@."
          (Threat.Stride.to_string t.Threat.Threat.stride);
        Format.printf "DREAD:       %a (%s)@." Threat.Dread.pp
          t.Threat.Threat.dread
          (Threat.Dread.rating_name (Threat.Threat.rating t));
        Format.printf "policy:      %s (paper: %s)@."
          (match Secpol.Policy.Derive.row_access t with
          | Some a -> Secpol.Policy.Derive.access_name a
          | None -> "-")
          (Secpol.Policy.Derive.access_name row.V.Threat_catalog.paper_policy);
        Format.printf "residual:    %b@." (Threat.Threat.residual_risk t);
        0
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"THREAT" ~doc:"Threat id.")
  in
  Cmd.v (Cmd.info "show" ~doc:"One threat in detail.") Term.(const run $ id)

let export_cmd =
  let run file =
    print_string (Threat.Model_format.print (load_model file));
    0
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Serialise a model in the textual interchange format (the \
             built-in car model by default).")
    Term.(const run $ model_arg)

let () =
  let info =
    Cmd.info "threatctl" ~version:"1.0.0"
      ~doc:"Threat-model inspection and policy derivation for the connected-car case study."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            report_cmd; table_cmd; matrix_cmd; rank_cmd; derive_cmd; show_cmd;
            export_cmd;
          ]))
