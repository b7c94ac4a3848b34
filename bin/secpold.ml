(* secpold: the long-running decision daemon.

   Subcommands:
     serve   run the daemon in the foreground (Unix socket, optional TCP)
     reload  hot-swap the served policy, gated by the semantic verifier
     stats   scrape the daemon's JSON report over the socket
     decide  ask one decision over the socket (exit 0 allow / 3 deny)
     hammer  drive concurrent decide load; track a probe request across a
             swap and write a machine-readable report (the CI smoke job)
*)

module Policy = Secpol.Policy
module Serve = Secpol.Serve
module Daemon = Serve.Daemon
module Client = Serve.Client
module Wire = Serve.Wire
module Json = Policy.Json
module Clock = Secpol.Obs.Clock
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* Exit codes: 0 success (decide: allow), 1 transport/daemon error, 3
   unreadable/unparsable policy (decide: deny), 4 reload refused by the
   widening gate.  Cmdliner reserves 124/125. *)

let load_db path =
  match Policy.Compile.of_source (read_file path) with
  | Ok db -> Ok db
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let strategy_conv =
  Arg.enum
    [
      ("deny-overrides", Policy.Engine.Deny_overrides);
      ("allow-overrides", Policy.Engine.Allow_overrides);
      ("first-match", Policy.Engine.First_match);
    ]

let socket_arg =
  Arg.(value & opt string "secpold.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let policy_file =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"POLICY" ~doc:"Policy source file.")

(* ---------- serve ---------- *)

let serve_cmd =
  let run file socket tcp domains strategy queue_capacity watchdog_ms =
    match load_db file with
    | Error e ->
        Printf.eprintf "%s\n" e;
        3
    | Ok db -> (
        let config =
          {
            Daemon.socket_path = socket;
            tcp_port = tcp;
            domains;
            strategy;
            queue_capacity;
            watchdog_deadline_s = watchdog_ms /. 1e3;
          }
        in
        match Daemon.start ~config db with
        | exception Unix.Unix_error (err, _, _) ->
            Printf.eprintf "secpold: cannot bind %s: %s\n" socket
              (Unix.error_message err);
            1
        | daemon ->
            Printf.printf "secpold: serving %s v%d on %s (%d domain%s)\n%!"
              db.Policy.Ir.name db.Policy.Ir.version socket domains
              (if domains = 1 then "" else "s");
            let stopping = ref false in
            let stop_on _ =
              if not !stopping then begin
                stopping := true;
                Daemon.stop daemon;
                exit 0
              end
            in
            Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
            (* the server threads accept and serve; park the main thread *)
            let rec sleep () =
              Unix.sleep 3600;
              sleep ()
            in
            sleep ())
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on loopback TCP.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N" ~doc:"Worker shards (domains).")
  in
  let strategy =
    Arg.(value & opt strategy_conv Policy.Engine.Deny_overrides
         & info [ "strategy" ] ~docv:"S"
             ~doc:"Resolution strategy: $(b,deny-overrides), \
                   $(b,allow-overrides) or $(b,first-match).")
  in
  let queue_capacity =
    Arg.(value & opt int 1024
         & info [ "queue" ] ~docv:"N"
             ~doc:"Per-shard ring depth: the admission bound.")
  in
  let watchdog_ms =
    Arg.(value & opt float 1000.0
         & info [ "watchdog-ms" ] ~docv:"MS"
             ~doc:"Per-shard answer deadline before fail-safe denies.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the decision daemon in the foreground."
       ~man:
         [
           `S Manpage.s_description;
           `P "Compiles $(i,POLICY), spawns one pinned worker domain per \
               shard over the shared decision table, and answers batched \
               decide requests over a Unix-domain socket (and optionally \
               loopback TCP).  The served policy can be hot-swapped with \
               $(b,secpold reload) without dropping a request.";
         ])
    Term.(const run $ policy_file $ socket_arg $ tcp $ domains $ strategy
          $ queue_capacity $ watchdog_ms)

(* ---------- reload ---------- *)

let reload_cmd =
  let run file socket allow_widen =
    match
      (* parse locally first: a syntax error should not cost a round trip *)
      load_db file
    with
    | Error e ->
        Printf.eprintf "%s\n" e;
        3
    | Ok _ -> (
        let source = read_file file in
        match Client.connect ~attempts:1 socket with
        | exception Unix.Unix_error (err, _, _) ->
            Printf.eprintf "secpold: cannot connect %s: %s\n" socket
              (Unix.error_message err);
            1
        | client ->
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                let r = Client.reload client ~allow_widen source in
                Printf.printf
                  "%s: widened %d, tightened %d, changed %d (epoch %d)\n%s\n"
                  (match r.Client.status with
                  | Wire.Swapped -> "swapped"
                  | Wire.Refused_widened -> "refused"
                  | Wire.Rejected -> "rejected")
                  r.Client.widened r.Client.tightened r.Client.changed
                  r.Client.epoch r.Client.detail;
                match r.Client.status with
                | Wire.Swapped -> 0
                | Wire.Refused_widened -> 4
                | Wire.Rejected -> 3))
  in
  let allow_widen =
    Arg.(value & flag
         & info [ "allow-widen" ]
             ~doc:"Swap even when the update widens allow regions (the \
                   verifier gate refuses widenings by default).")
  in
  Cmd.v
    (Cmd.info "reload" ~doc:"Hot-swap the served policy, verifier-gated."
       ~man:
         [
           `S Manpage.s_description;
           `P "Ships the policy source to the daemon, which compiles it \
               off-path, computes the exact decision-region diff against \
               the running policy, and refuses the swap when any region \
               widens unless $(b,--allow-widen) is passed; the refusal \
               names the first widened flow.  On acceptance \
               the new table is published atomically: every request \
               answered after this command returns was decided under the \
               new policy.";
           `S Manpage.s_exit_status;
           `P "0 swapped; 3 the policy does not parse or compile; 4 \
               refused by the widening gate; 1 transport failure.";
         ])
    Term.(const run $ policy_file $ socket_arg $ allow_widen)

(* ---------- stats ---------- *)

let stats_cmd =
  let run socket out =
    match Client.connect ~attempts:1 socket with
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "secpold: cannot connect %s: %s\n" socket
          (Unix.error_message err);
        1
    | client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let body = Client.stats client in
            (match out with
            | None -> print_endline body
            | Some path -> write_file path body);
            0)
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to a file.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape the daemon's counters and metrics as JSON.")
    Term.(const run $ socket_arg $ out)

(* ---------- decide ---------- *)

let op_conv = Arg.enum [ ("read", Policy.Ir.Read); ("write", Policy.Ir.Write) ]

let subject_arg =
  Arg.(required & opt (some string) None
       & info [ "subject" ] ~docv:"S" ~doc:"Requesting subject.")

let asset_arg =
  Arg.(required & opt (some string) None
       & info [ "asset" ] ~docv:"A" ~doc:"Target asset.")

let op_arg =
  Arg.(value & opt op_conv Policy.Ir.Read
       & info [ "op" ] ~docv:"OP" ~doc:"$(b,read) or $(b,write).")

let mode_arg =
  Arg.(value & opt string "normal"
       & info [ "mode" ] ~docv:"M" ~doc:"Operating mode.")

let msg_arg =
  Arg.(value & opt (some int) None
       & info [ "msg" ] ~docv:"ID" ~doc:"CAN message ID.")

let request subject asset op mode msg_id =
  { Policy.Ir.mode; subject; asset; op; msg_id }

let decide_cmd =
  let run socket subject asset op mode msg =
    match Client.connect ~attempts:1 socket with
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "secpold: cannot connect %s: %s\n" socket
          (Unix.error_message err);
        1
    | client ->
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            let b = Client.decide client [| request subject asset op mode msg |] in
            let verdict = b.Client.allows.(0) in
            Printf.printf "%s%s\n"
              (if verdict then "allow" else "deny")
              (if b.Client.degraded then " (degraded)"
               else if b.Client.shed then " (shed)"
               else "");
            if verdict then 0 else 3)
  in
  Cmd.v
    (Cmd.info "decide" ~doc:"Ask the daemon for one decision."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 allow; 3 deny (including fail-safe denies); 1 transport \
               failure.";
         ])
    Term.(const run $ socket_arg $ subject_arg $ asset_arg $ op_arg $ mode_arg
          $ msg_arg)

(* ---------- hammer ---------- *)

(* The swap-correctness driver: every thread sends batches as fast as it
   can and tracks the probe request's answer on every batch.  Across a
   hot swap the probe must change value at most once (monotone old->new)
   and every batch must be answered — the report makes both checkable. *)
type hammer_thread = {
  mutable sent : int;
  mutable answered : int;
  mutable errors : int;
  mutable degraded_batches : int;
  mutable shed_batches : int;
  mutable probe_first : bool option;
  mutable probe_last : bool option;
  mutable probe_flips : int;
}

let hammer_cmd =
  let run socket seconds threads batch subject asset op mode msg report_path =
    let probe = request subject asset op mode msg in
    let reqs = Array.make (max batch 1) probe in
    let states =
      Array.init threads (fun _ ->
          {
            sent = 0;
            answered = 0;
            errors = 0;
            degraded_batches = 0;
            shed_batches = 0;
            probe_first = None;
            probe_last = None;
            probe_flips = 0;
          })
    in
    let deadline = Clock.now () +. seconds in
    let worker state =
      match Client.connect socket with
      | exception _ -> state.errors <- state.errors + 1
      | client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              while Clock.now () < deadline do
                state.sent <- state.sent + 1;
                match Client.decide client reqs with
                | exception _ -> state.errors <- state.errors + 1
                | b ->
                    state.answered <- state.answered + 1;
                    if b.Client.degraded then
                      state.degraded_batches <- state.degraded_batches + 1;
                    if b.Client.shed then
                      state.shed_batches <- state.shed_batches + 1;
                    if not (b.Client.degraded || b.Client.shed) then begin
                      let v = b.Client.allows.(0) in
                      (match state.probe_last with
                      | Some prev when prev <> v ->
                          state.probe_flips <- state.probe_flips + 1
                      | _ -> ());
                      if state.probe_first = None then
                        state.probe_first <- Some v;
                      state.probe_last <- Some v
                    end
              done)
    in
    let handles =
      Array.map (fun s -> Thread.create (fun () -> worker s) ()) states
    in
    Array.iter Thread.join handles;
    let total f = Array.fold_left (fun a s -> a + f s) 0 states in
    let thread_json s =
      Json.Obj
        [
          ("sent", Json.Int s.sent);
          ("answered", Json.Int s.answered);
          ("errors", Json.Int s.errors);
          ("degraded_batches", Json.Int s.degraded_batches);
          ("shed_batches", Json.Int s.shed_batches);
          ( "probe_first",
            match s.probe_first with
            | None -> Json.Null
            | Some b -> Json.Bool b );
          ( "probe_last",
            match s.probe_last with None -> Json.Null | Some b -> Json.Bool b
          );
          ("probe_flips", Json.Int s.probe_flips);
        ]
    in
    let report =
      Json.Obj
        [
          ("schema", Json.Int 1);
          ("suite", Json.String "secpold-hammer");
          ("threads", Json.Int threads);
          ("batch", Json.Int (max batch 1));
          ("seconds", Json.Float seconds);
          ("sent", Json.Int (total (fun s -> s.sent)));
          ("answered", Json.Int (total (fun s -> s.answered)));
          ("errors", Json.Int (total (fun s -> s.errors)));
          ("degraded_batches", Json.Int (total (fun s -> s.degraded_batches)));
          ("shed_batches", Json.Int (total (fun s -> s.shed_batches)));
          ("probe_flips", Json.Int (total (fun s -> s.probe_flips)));
          ( "per_thread",
            Json.List (Array.to_list (Array.map thread_json states)) );
        ]
    in
    let text = Json.to_string report in
    (match report_path with
    | None -> print_endline text
    | Some path -> write_file path text);
    if total (fun s -> s.errors) > 0 then 1 else 0
  in
  let seconds =
    Arg.(value & opt float 2.0
         & info [ "seconds" ] ~docv:"S" ~doc:"How long to drive load.")
  in
  let threads =
    Arg.(value & opt int 4
         & info [ "threads" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let batch =
    Arg.(value & opt int 16
         & info [ "batch" ] ~docv:"N" ~doc:"Requests per decide message.")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE" ~doc:"Write the JSON report here.")
  in
  Cmd.v
    (Cmd.info "hammer"
       ~doc:"Drive concurrent decide load and track a probe request."
       ~man:
         [
           `S Manpage.s_description;
           `P "Each thread opens its own connection and sends decide \
               batches of the probe request until the deadline.  The \
               report counts sent/answered/errors per thread and how \
               often the probe's answer changed — across a single hot \
               swap it must change at most once.";
           `S Manpage.s_exit_status;
           `P "0 when every batch was answered; 1 otherwise.";
         ])
    Term.(const run $ socket_arg $ seconds $ threads $ batch $ subject_arg
          $ asset_arg $ op_arg $ mode_arg $ msg_arg $ report)

let () =
  let info =
    Cmd.info "secpold" ~version:"1.0.0"
      ~doc:"Long-running policy decision daemon with verifier-gated hot \
            reload."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ serve_cmd; reload_cmd; stats_cmd; decide_cmd; hammer_cmd ]))
