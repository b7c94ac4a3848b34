(* Tests for the benchmark-trajectory gates (bench/protocol.ml): each bound
   passes and fails where it should, a gate without the cores it needs is
   ungated rather than failed, and a missing value or a baseline from
   another run fails. *)

module Json = Secpol_policy.Json

let check = Alcotest.check

(* a minimal artifact: the run identity, meta.cores and [fields] *)
let artifact ?(suite = "secpol-perf") ?(schema = 2) ?(quick = true)
    ?(cores = 2) fields =
  Json.Obj
    ([
       ("schema", Json.Int schema);
       ("suite", Json.String suite);
       ("quick", Json.Bool quick);
       ("meta", Json.Obj [ ("cores", Json.Int cores) ]);
     ]
    @ fields)

let speedup ?suite ?schema ?quick ?cores v =
  artifact ?suite ?schema ?quick ?cores
    [ ("batched", Json.Obj [ ("speedup", Json.Float v) ]) ]

let status = function
  | Protocol.Pass _ -> "ok"
  | Protocol.Fail _ -> "FAILED"
  | Protocol.Ungated _ -> "ungated"

let detail = function
  | Protocol.Pass d | Protocol.Fail d | Protocol.Ungated d -> d

let eval ?(baseline = Ok (speedup 4.0)) g fresh =
  Protocol.evaluate g ~fresh ~baseline

let expect what want verdict =
  check Alcotest.string
    (Printf.sprintf "%s (%s)" what (detail verdict))
    want (status verdict)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_floor () =
  let g = Protocol.gate "batched.speedup" (Floor 3.0) in
  expect "below" "FAILED" (eval g (speedup 2.999));
  expect "equal" "ok" (eval g (speedup 3.0));
  expect "above" "ok" (eval g (speedup 3.5));
  (* a floor reads no baseline *)
  expect "without a baseline" "ok"
    (eval ~baseline:(Error "no such file") g (speedup 3.0))

let test_ceiling () =
  let rows words =
    artifact
      [
        ( "results",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "compiled-loop");
                  ("minor_words_per_op", Json.Float 20.0);
                ];
              Json.Obj
                [
                  ("name", Json.String "decide_batch");
                  ("minor_words_per_op", Json.Float words);
                ];
            ] );
      ]
  in
  let g =
    Protocol.gate "decide_batch.minor_words_per_op"
      ~read:
        (Protocol.row [ "results" ] ~key:"name" (Json.String "decide_batch")
           "minor_words_per_op")
      (Ceiling 0.0)
  in
  expect "zero allocation" "ok" (eval g (rows 0.0));
  expect "one word per thousand decisions" "FAILED" (eval g (rows 0.001))

let test_tolerance () =
  let g = Protocol.gate "batched.speedup" (Tolerance 0.10) in
  (* baseline 4.0: the floor is 3.6 *)
  expect "inside the band" "ok" (eval g (speedup 3.7));
  expect "just below the band" "FAILED" (eval g (speedup 3.599));
  expect "faster" "ok" (eval g (speedup 40.0))

let test_cores () =
  let g = Protocol.gate "batched.speedup" ~cores:8 (Tolerance 0.60) in
  let fresh cores = speedup ~cores 0.01 in
  let baseline cores = Ok (speedup ~cores 1.0) in
  expect "fresh short" "ungated" (eval ~baseline:(baseline 8) g (fresh 2));
  expect "baseline short" "ungated" (eval ~baseline:(baseline 1) g (fresh 8));
  expect "both enough" "FAILED" (eval ~baseline:(baseline 8) g (fresh 8));
  let floor = Protocol.gate "batched.speedup" ~cores:2 (Floor 1.0) in
  expect "floor short" "ungated" (eval floor (speedup ~cores:1 0.5));
  expect "floor enough" "FAILED" (eval floor (speedup ~cores:2 0.5));
  check Alcotest.bool "ungated is not failed" true
    (Protocol.check ~target:"test" [ floor ]
       ~fresh:(speedup ~cores:1 0.5)
       ~baseline:(Error "unused"))

let test_missing () =
  let g = Protocol.gate "batched.speedup" (Tolerance 0.10) in
  expect "from the fresh artifact" "FAILED" (eval g (artifact []));
  expect "from the baseline" "FAILED"
    (eval ~baseline:(Ok (artifact [])) g (speedup 4.0));
  (* non-finite numbers are written as null *)
  expect "null in the fresh artifact" "FAILED"
    (eval g (artifact [ ("batched", Json.Obj [ ("speedup", Json.Null) ]) ]));
  expect "baseline unreadable" "FAILED"
    (eval ~baseline:(Error "no such file") g (speedup 4.0));
  expect "floor" "FAILED"
    (eval (Protocol.gate "batched.speedup" (Floor 1.0)) (artifact []));
  check Alcotest.bool "a failure fails the check" false
    (Protocol.check ~target:"test"
       [
         Protocol.gate "batched.speedup" (Floor 1.0);
         Protocol.gate "batched.speedup" (Floor 5.0);
       ]
       ~fresh:(speedup 4.0) ~baseline:(Error "unused"))

let test_other_run () =
  let g = Protocol.gate "batched.speedup" (Tolerance 0.10) in
  List.iter
    (fun (field, baseline) ->
      let v = eval ~baseline:(Ok baseline) g (speedup 4.0) in
      expect field "FAILED" v;
      check Alcotest.bool
        (Printf.sprintf "names %s in %S" field (detail v))
        true (contains (detail v) field))
    [
      ("suite", speedup ~suite:"secpol-parscale" 4.0);
      ("schema", speedup ~schema:3 4.0);
      ("quick", speedup ~quick:false 4.0);
    ];
  (* even where the cores alone would leave the gate ungated *)
  expect "with too few cores" "FAILED"
    (eval
       ~baseline:(Ok (speedup ~quick:false ~cores:1 4.0))
       (Protocol.gate "batched.speedup" ~cores:8 (Tolerance 0.60))
       (speedup ~cores:1 4.0))

let test_readers () =
  let runs =
    artifact
      [
        ( "runs",
          Json.List
            (List.map
               (fun (d, t) ->
                 Json.Obj
                   [
                     ("domains", Json.Int d); ("throughput_per_s", Json.Float t);
                   ])
               [ (1, 100.0); (2, 150.0) ]) );
      ]
  in
  let rung d =
    Protocol.row [ "runs" ] ~key:"domains" (Json.Int d) "throughput_per_s"
  in
  let number = Alcotest.(option (float 1e-9)) in
  check number "2 over 1 domain" (Some 1.5)
    (Protocol.ratio (rung 2) (rung 1) runs);
  check number "a missing rung" None (Protocol.ratio (rung 4) (rung 1) runs);
  check number "an int reads as a float" (Some 2.0)
    (Protocol.at [ "meta"; "cores" ] runs)

let test_largest () =
  let rungs values =
    artifact
      [
        ( "runs",
          Json.List
            (List.map
               (fun v ->
                 Json.Obj
                   (("domains", Json.Int 1)
                   :: Option.fold ~none:[]
                        ~some:(fun v -> [ ("per_batch", Json.Float v) ])
                        v))
               values) );
      ]
  in
  let largest = Protocol.largest [ "runs" ] "per_batch" in
  let number = Alcotest.(option (float 1e-9)) in
  check number "the worst rung" (Some 0.5)
    (largest (rungs [ Some 0.1; Some 0.5; Some 0.2 ]));
  check number "a rung without the field" None
    (largest (rungs [ Some 0.1; None ]));
  check number "no rungs" None (largest (rungs []));
  let g = Protocol.gate "per_batch" ~read:largest (Ceiling 1.0) in
  expect "every rung under the ceiling" "ok"
    (eval g (rungs [ Some 0.1; Some 1.0 ]));
  expect "one rung over it" "FAILED" (eval g (rungs [ Some 0.1; Some 5.2 ]))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "protocol"
    [
      ( "trajectory",
        [
          quick "floor" test_floor;
          quick "ceiling" test_ceiling;
          quick "tolerance" test_tolerance;
          quick "too few cores is ungated" test_cores;
          quick "missing value fails" test_missing;
          quick "baseline from another run fails" test_other_run;
          quick "readers" test_readers;
          quick "largest over rows" test_largest;
        ] );
    ]
