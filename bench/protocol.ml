(* Fixed measurement protocol for the hand-rolled (non-bechamel) benchmark
   rows, and the gates the benchmark-trajectory artifacts are held to.

   The protocol is deliberately rigid so two runs are comparable: a fixed
   number of warmup executions (JIT-free here, but the allocator, branch
   predictors and the page cache still need priming), then a fixed number
   of timed repeats, reporting the *median* repeat — medians shrug off the
   one repeat that caught a GC slice or a scheduler migration, where a
   mean would smear it over the result.  Every artifact embeds machine and
   git metadata, because a baseline number is meaningless without knowing
   what it was measured on; the gates therefore bound *ratios* (speedups,
   scaling), which survive a machine change, rather than absolute ns. *)

module Clock = Secpol_obs.Clock
module Json = Secpol_policy.Json

let median samples =
  let s = Array.copy samples in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* [measure ~warmup ~repeats f] runs [f] [warmup] times untimed, then
   [repeats] timed times; returns the median elapsed seconds and every
   sample (chronological, for the artifact). *)
let measure ~warmup ~repeats f =
  for _ = 1 to warmup do
    f ()
  done;
  let samples = Array.make repeats 0.0 in
  for i = 0 to repeats - 1 do
    let t0 = Clock.now () in
    f ();
    samples.(i) <- Clock.now () -. t0
  done;
  (median samples, samples)

(* [interleave ~warmup ~repeats f g] is [measure] of two functions
   alternating repeat by repeat: a spell of host speed meets both sides of
   the same repeat, so their per-repeat ratio barely moves with it.
   Returns each side's samples, chronological. *)
let interleave ~warmup ~repeats f g =
  for _ = 1 to warmup do
    f ();
    g ()
  done;
  let fs = Array.make repeats 0.0 and gs = Array.make repeats 0.0 in
  for i = 0 to repeats - 1 do
    let t0 = Clock.now () in
    f ();
    let t1 = Clock.now () in
    g ();
    fs.(i) <- t1 -. t0;
    gs.(i) <- Clock.now () -. t1
  done;
  (fs, gs)

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

let first_line_of cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> ""

let meta () =
  Json.Obj
    [
      ("hostname", Json.String (try Unix.gethostname () with _ -> ""));
      ("uname", Json.String (first_line_of "uname -sr 2>/dev/null"));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ( "git_commit",
        Json.String (first_line_of "git rev-parse HEAD 2>/dev/null") );
      ( "git_branch",
        Json.String
          (first_line_of "git rev-parse --abbrev-ref HEAD 2>/dev/null") );
    ]

let load_json path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> Json.of_string text

(* ------------------------------------------------------------------ *)
(* Reading numbers out of an artifact                                  *)
(* ------------------------------------------------------------------ *)

let rec member_at json = function
  | [] -> Some json
  | field :: rest ->
      Option.bind (Json.member field json) (fun j -> member_at j rest)

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* the number at a path of object fields, e.g. ["blast"; "containment"] *)
let at path json = Option.bind (member_at json path) number

(* [field] of the first element of the list at [path] whose [key] is
   [value], e.g. the throughput of the 2-domain run *)
let row path ~key value field json =
  match Option.bind (member_at json path) Json.to_list with
  | None -> None
  | Some rows ->
      Option.bind
        (List.find_opt (fun r -> Json.member key r = Some value) rows)
        (at [ field ])

(* the largest [field] over every element of the list at [path], e.g. a
   ladder's worst rung against a ceiling; [None] when the list is missing
   or empty, or an element lacks the field *)
let largest path field json =
  match Option.bind (member_at json path) Json.to_list with
  | None | Some [] -> None
  | Some rows ->
      List.fold_left
        (fun acc r ->
          match (acc, at [ field ] r) with
          | Some m, Some v -> Some (Float.max m v)
          | _ -> None)
        (Some neg_infinity) rows

let ratio num den json =
  match (num json, den json) with
  | Some a, Some b when b > 0.0 -> Some (a /. b)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

(* A gate reads one number out of an artifact and bounds it: from below
   ([Floor]), from above ([Ceiling]), or from below relative to the same
   number in a baseline artifact ([Tolerance f]: at least [1 - f] of the
   baseline's value, so getting faster never fails).  [cores] is what the
   number needs to mean anything: where an artifact's [meta.cores] is
   smaller, the gate is ungated, never failed.  An artifact that does not
   say counts as one core. *)
type bound = Floor of float | Ceiling of float | Tolerance of float

type gate = {
  metric : string;
  read : Json.t -> float option;
  bound : bound;
  cores : int;
}

(* [metric] names the number; unless [read] says otherwise, it is also
   the dotted path the number is read from *)
let gate ?(cores = 1) ?read metric bound =
  let read =
    match read with
    | Some read -> read
    | None -> at (String.split_on_char '.' metric)
  in
  { metric; read; bound; cores }

type verdict = Pass of string | Fail of string | Ungated of string

(* a baseline is only comparable with a fresh artifact of the same run *)
let same_run = [ "suite"; "schema"; "quick" ]

let cores json =
  match at [ "meta"; "cores" ] json with Some c -> int_of_float c | None -> 1

(* [baseline] is the artifact at the baseline path, or the error loading
   it gave; only a [Tolerance] gate reads it.  A baseline that cannot be
   read or comes from another run fails the gate whatever the cores. *)
let evaluate g ~fresh ~baseline =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun d -> Error (Fail d)) fmt in
  let verdict ok =
    Printf.ksprintf (fun d -> Ok (if ok then Pass d else Fail d))
  in
  let enough what json =
    let c = cores json in
    if c >= g.cores then Ok ()
    else
      Error
        (Ungated
           (Printf.sprintf "needs %d cores, the %s artifact has %d" g.cores
              what c))
  in
  let value what json =
    match g.read json with
    | Some v -> Ok v
    | None -> fail "value missing from the %s artifact" what
  in
  let result =
    match g.bound with
    | Floor x ->
        let* () = enough "fresh" fresh in
        let* v = value "fresh" fresh in
        verdict (v >= x) "%.3f, floor %.3f" v x
    | Ceiling x ->
        let* () = enough "fresh" fresh in
        let* v = value "fresh" fresh in
        verdict (v <= x) "%.3f, ceiling %.3f" v x
    | Tolerance f ->
        let* baseline =
          Result.map_error (fun e -> Fail ("no baseline: " ^ e)) baseline
        in
        let* () =
          let differs k = Json.member k fresh <> Json.member k baseline in
          match List.find_opt differs same_run with
          | None -> Ok ()
          | Some k ->
              let show j =
                Option.fold ~none:"none" ~some:Json.to_string (Json.member k j)
              in
              fail "baseline from another run: %s %s, fresh %s" k
                (show baseline) (show fresh)
        in
        let* () = enough "fresh" fresh in
        let* () = enough "baseline" baseline in
        let* v = value "fresh" fresh in
        let* b = value "baseline" baseline in
        let floor = b *. (1.0 -. f) in
        verdict (v >= floor) "%.3f, floor %.3f = %.0f%% of baseline %.3f" v
          floor
          (100.0 *. (1.0 -. f))
          b
  in
  match result with Ok v | Error v -> v

(* Evaluate [target]'s gates on its fresh artifact, printing one verdict
   line each; true when none failed. *)
let check ~target gates ~fresh ~baseline =
  List.fold_left
    (fun ok g ->
      let status, detail, passed =
        match evaluate g ~fresh ~baseline with
        | Pass d -> ("ok", d, true)
        | Fail d -> ("FAILED", d, false)
        | Ungated d -> ("ungated", d, true)
      in
      Printf.printf "gate: %-9s %-32s %s: %s\n" target g.metric status detail;
      ok && passed)
    true gates
