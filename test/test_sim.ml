(* Tests for the simulation substrate: RNG, event queue, engine, stats. *)

module Rng = Secpol_sim.Rng
module Event_queue = Secpol_sim.Event_queue
module Engine = Secpol_sim.Engine
module Stats = Secpol_sim.Stats

let check = Alcotest.check

(* ---------- RNG ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniform_non_power_of_two () =
  (* regression for the modulo-bias fix: every residue of a bound that
     does not divide 2^62 must land close to its fair share.  The check is
     deliberately coarse (the pre-fix bias at small bounds was ~2^-60 per
     draw, invisible at any sample size) — what it pins is that rejection
     sampling still produces all residues at the right rate and never
     loops or drops a class. *)
  let rng = Rng.create 41L in
  let bound = 7 in
  let n = 70_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let fair = n / bound in
  Array.iteri
    (fun residue c ->
      Alcotest.(check bool)
        (Printf.sprintf "residue %d count %d near %d" residue c fair)
        true
        (c > fair * 9 / 10 && c < fair * 11 / 10))
    counts

let test_rng_int_power_of_two_stream_unchanged () =
  (* power-of-two bounds divide the 62-bit space exactly, so rejection
     never triggers and the stream is bit-identical to the pre-fix one:
     int followed by bits64 must agree with a hand-computed mod over the
     same raw draws *)
  let a = Rng.create 9L and b = Rng.create 9L in
  for _ = 1 to 200 do
    let expected =
      Int64.to_int (Int64.logand (Rng.bits64 b) 0x3FFFFFFFFFFFFFFFL) mod 64
    in
    Alcotest.(check int) "same draw" expected (Rng.int a 64)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 5L in
  for _ = 1 to 500 do
    let v = Rng.int_in rng (-3) 3 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 3)
  done

let test_rng_split_independent () =
  let root = Rng.create 11L in
  let a = Rng.split root in
  let b = Rng.split root in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_rng_copy_diverges_from_original () =
  let a = Rng.create 13L in
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing one does not advance the other *)
  let a3 = Rng.bits64 a and b2 = Rng.bits64 b in
  Alcotest.(check bool) "diverged" true (a3 <> b2)

let test_rng_chance_extremes () =
  let rng = Rng.create 17L in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_float_bounds () =
  let rng = Rng.create 19L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 23L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng 5.0 > 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 29L in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 4.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f within 10%% of 4.0" mean)
    true
    (mean > 3.6 && mean < 4.4)

let test_rng_pick_and_shuffle () =
  let rng = Rng.create 31L in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  let arr2 = Array.init 20 Fun.id in
  Rng.shuffle rng arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* ---------- Event queue ---------- *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_queue_fifo_same_time () =
  let q = Event_queue.create () in
  List.iter (fun p -> Event_queue.add q ~time:1.0 p) [ "x"; "y"; "z" ];
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list string)) "insertion order" [ "x"; "y"; "z" ] order

let test_queue_peek_pop () =
  let q = Event_queue.create () in
  Alcotest.(check (option (float 0.0))) "empty peek" None (Event_queue.peek_time q);
  Event_queue.add q ~time:5.0 0;
  Alcotest.(check (option (float 0.0))) "peek" (Some 5.0) (Event_queue.peek_time q);
  check Alcotest.int "length" 1 (Event_queue.length q);
  (match Event_queue.pop q with
  | Some (t, v) ->
      check Alcotest.(float 0.0) "pop time" 5.0 t;
      check Alcotest.int "pop value" 0 v
  | None -> Alcotest.fail "expected event");
  Alcotest.(check bool) "empty after pop" true (Event_queue.is_empty q)

let test_queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.add: NaN time")
    (fun () -> Event_queue.add q ~time:Float.nan ())

let test_queue_clear () =
  let q = Event_queue.create () in
  for i = 1 to 10 do
    Event_queue.add q ~time:(float_of_int i) i
  done;
  Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Event_queue.is_empty q);
  (* still usable after clear *)
  Event_queue.add q ~time:1.0 99;
  check Alcotest.int "usable" 1 (Event_queue.length q)

(* Times drawn from 0..7 make ties common, so the property pins FIFO at
   equal time as well as time order: each payload is its event's index. *)
let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue drains sorted by time" ~count:200
    QCheck.(list (int_bound 7))
    (fun ticks ->
      let events = List.mapi (fun i k -> (float_of_int k, i)) ticks in
      let q = Event_queue.create () in
      List.iter (fun (t, i) -> Event_queue.add q ~time:t i) events;
      Event_queue.drain q
      = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) events)

(* Regression: a popped entry must not linger in the heap's vacated slot,
   or long-lived queues pin every payload ever scheduled (a space leak).
   Weak pointers observe collectability directly. *)
let test_queue_pop_releases_payload () =
  let q = Event_queue.create () in
  let weak = Weak.create 1 in
  (let payload = Bytes.make 64 'x' in
   Weak.set weak 0 (Some payload);
   Event_queue.add q ~time:1.0 payload;
   Event_queue.add q ~time:2.0 (Bytes.make 64 'y'));
  (match Event_queue.pop q with
  | Some (_, p) -> ignore (Sys.opaque_identity p)
  | None -> Alcotest.fail "expected event");
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check weak 0);
  (* the queue itself stays alive and intact *)
  check Alcotest.int "remaining entry" 1 (Event_queue.length q)

let test_queue_clear_releases_payloads () =
  let q = Event_queue.create () in
  let weak = Weak.create 1 in
  (let payload = Bytes.make 64 'z' in
   Weak.set weak 0 (Some payload);
   Event_queue.add q ~time:1.0 payload);
  Event_queue.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "cleared payload collected" false (Weak.check weak 0)

(* ---------- Engine ---------- *)

let test_engine_schedule_order () =
  let sim = Engine.create () in
  let log = ref [] in
  Engine.schedule sim ~at:2.0 (fun _ -> log := "b" :: !log);
  Engine.schedule sim ~at:1.0 (fun _ -> log := "a" :: !log);
  Engine.run_until sim 10.0;
  Alcotest.(check (list string)) "fired in order" [ "a"; "b" ] (List.rev !log);
  check Alcotest.(float 0.0) "clock at horizon" 10.0 (Engine.now sim)

let test_engine_past_rejected () =
  let sim = Engine.create () in
  Engine.run_until sim 5.0;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> Engine.schedule sim ~at:1.0 (fun _ -> ()))

let test_engine_schedule_in () =
  let sim = Engine.create () in
  let fired_at = ref (-1.0) in
  Engine.run_until sim 1.0;
  Engine.schedule_in sim ~delay:2.5 (fun s -> fired_at := Engine.now s);
  Engine.run_until sim 10.0;
  check Alcotest.(float 1e-9) "fired at 3.5" 3.5 !fired_at

let test_engine_every () =
  let sim = Engine.create () in
  let count = ref 0 in
  Engine.every sim ~period:1.0 ~until:5.5 (fun _ -> incr count);
  Engine.run_until sim 100.0;
  check Alcotest.int "five ticks" 5 !count

let test_engine_every_unbounded () =
  let sim = Engine.create () in
  let count = ref 0 in
  Engine.every sim ~period:0.5 (fun _ -> incr count);
  Engine.run_until sim 10.0;
  check Alcotest.int "twenty ticks" 20 !count

let test_engine_cascading () =
  (* events scheduled during execution still run within the horizon *)
  let sim = Engine.create () in
  let log = ref [] in
  Engine.schedule sim ~at:1.0 (fun s ->
      log := 1 :: !log;
      Engine.schedule_in s ~delay:1.0 (fun _ -> log := 2 :: !log));
  Engine.run_until sim 5.0;
  Alcotest.(check (list int)) "cascade" [ 1; 2 ] (List.rev !log)

let test_engine_stop () =
  let sim = Engine.create () in
  let count = ref 0 in
  Engine.every sim ~period:1.0 (fun _ -> incr count);
  Engine.run_until sim 3.0;
  Engine.stop sim;
  Engine.run_until sim 10.0;
  check Alcotest.int "stopped" 3 !count

let test_engine_stop_mid_tick () =
  (* a stop issued from inside an [every] callback must prevent that very
     callback from re-arming itself — the queue is cleared *after* the
     callback returns, so the reschedule must be epoch-guarded *)
  let sim = Engine.create () in
  let count = ref 0 in
  Engine.every sim ~period:1.0 (fun s ->
      incr count;
      if !count = 2 then Engine.stop s);
  Engine.run_until sim 10.0;
  check Alcotest.int "no reschedule after stop" 2 !count;
  (* the engine stays usable: periodics armed after the stop belong to the
     new epoch and run normally *)
  let again = ref 0 in
  Engine.every sim ~period:1.0 (fun _ -> incr again);
  Engine.run_until sim 15.0;
  check Alcotest.int "fresh periodic unaffected" 5 !again

let test_engine_run_next () =
  let sim = Engine.create () in
  Alcotest.(check bool) "empty" false (Engine.run_next sim);
  Engine.schedule sim ~at:4.0 (fun _ -> ());
  Alcotest.(check bool) "ran one" true (Engine.run_next sim);
  check Alcotest.(float 0.0) "clock moved" 4.0 (Engine.now sim)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check Alcotest.(float 1e-9) "mean" 2.5 (Stats.mean s);
  check Alcotest.(float 1e-9) "total" 10.0 (Stats.total s);
  check Alcotest.(float 1e-9) "min" 1.0 (Stats.min s);
  check Alcotest.(float 1e-9) "max" 4.0 (Stats.max s);
  check Alcotest.(float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  check Alcotest.(float 0.0) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Stats.min: empty sample")
    (fun () -> ignore (Stats.min s))

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check Alcotest.(float 0.0) "p50" 50.0 (Stats.percentile s 50.0);
  check Alcotest.(float 0.0) "p99" 99.0 (Stats.percentile s 99.0);
  check Alcotest.(float 0.0) "p100" 100.0 (Stats.percentile s 100.0);
  check Alcotest.(float 0.0) "median" 50.0 (Stats.median s)

let test_stats_nan_excluded () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; Float.nan; 2.0; Float.nan; 3.0 ];
  check Alcotest.int "count ignores NaN" 3 (Stats.count s);
  check Alcotest.int "nan_count" 2 (Stats.nan_count s);
  check Alcotest.(float 1e-9) "mean unaffected" 2.0 (Stats.mean s);
  check Alcotest.(float 1e-9) "min unaffected" 1.0 (Stats.min s);
  check Alcotest.(float 1e-9) "max unaffected" 3.0 (Stats.max s);
  check Alcotest.(float 1e-9) "median unaffected" 2.0 (Stats.median s);
  Alcotest.(check bool)
    "p99 is a number" false
    (Float.is_nan (Stats.percentile s 99.0))

let test_stats_all_nan_is_empty () =
  let s = Stats.create () in
  Stats.add s Float.nan;
  check Alcotest.int "count" 0 (Stats.count s);
  check Alcotest.int "nan_count" 1 (Stats.nan_count s);
  Alcotest.check_raises "min still empty"
    (Invalid_argument "Stats.min: empty sample") (fun () ->
      ignore (Stats.min s))

let test_stats_single_sample () =
  let s = Stats.create () in
  Stats.add s 7.5;
  check Alcotest.(float 0.0) "p0" 7.5 (Stats.percentile s 0.0);
  check Alcotest.(float 0.0) "p50" 7.5 (Stats.percentile s 50.0);
  check Alcotest.(float 0.0) "p100" 7.5 (Stats.percentile s 100.0);
  check Alcotest.(float 0.0) "variance" 0.0 (Stats.variance s)

let test_stats_p0_p100_exact () =
  let s = Stats.create ~reservoir:16 () in
  (* overflow the reservoir: extremes must stay exact regardless *)
  for i = 1 to 10_000 do
    Stats.add s (float_of_int i)
  done;
  check Alcotest.(float 0.0) "p0 = exact min" 1.0 (Stats.percentile s 0.0);
  check Alcotest.(float 0.0) "p100 = exact max" 10_000.0
    (Stats.percentile s 100.0);
  check Alcotest.int "count keeps the true n" 10_000 (Stats.count s)

let test_stats_bounded_memory () =
  let s = Stats.create ~reservoir:64 () in
  for i = 1 to 100_000 do
    Stats.add s (float_of_int i)
  done;
  ignore (Stats.percentile s 50.0);
  let words = Obj.reachable_words (Obj.repr s) in
  (* reservoir (64) + sorted cache (64) + a fixed record: far below the
     100k floats an unbounded sample list would hold *)
  Alcotest.(check bool)
    (Printf.sprintf "reachable words bounded (%d)" words)
    true (words < 2_000);
  (* the estimated median still lands inside the sample range *)
  let p50 = Stats.percentile s 50.0 in
  Alcotest.(check bool) "median in range" true (p50 >= 1.0 && p50 <= 100_000.0)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile stays within [min,max]" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let v = Stats.percentile s p in
      v >= Stats.min s && v <= Stats.max s)

let prop_mean_welford_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6 *. (1.0 +. Float.abs naive))

let quick name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "secpol_sim"
    [
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "int bounds" test_rng_int_bounds;
          quick "int uniform (non-power-of-two)" test_rng_int_uniform_non_power_of_two;
          quick "int stream unchanged (power-of-two)" test_rng_int_power_of_two_stream_unchanged;
          quick "int invalid" test_rng_int_invalid;
          quick "int_in bounds" test_rng_int_in;
          quick "split independent" test_rng_split_independent;
          quick "copy diverges" test_rng_copy_diverges_from_original;
          quick "chance extremes" test_rng_chance_extremes;
          quick "float bounds" test_rng_float_bounds;
          quick "exponential positive" test_rng_exponential_positive;
          quick "exponential mean" test_rng_exponential_mean;
          quick "pick and shuffle" test_rng_pick_and_shuffle;
        ] );
      ( "event-queue",
        [
          quick "time order" test_queue_order;
          quick "FIFO at equal time" test_queue_fifo_same_time;
          quick "peek/pop" test_queue_peek_pop;
          quick "NaN rejected" test_queue_nan_rejected;
          quick "clear" test_queue_clear;
          quick "pop releases payload" test_queue_pop_releases_payload;
          quick "clear releases payloads" test_queue_clear_releases_payloads;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
        ] );
      ( "engine",
        [
          quick "schedule order" test_engine_schedule_order;
          quick "past rejected" test_engine_past_rejected;
          quick "schedule_in" test_engine_schedule_in;
          quick "every bounded" test_engine_every;
          quick "every unbounded" test_engine_every_unbounded;
          quick "cascading events" test_engine_cascading;
          quick "stop" test_engine_stop;
          quick "stop from inside a tick" test_engine_stop_mid_tick;
          quick "run_next" test_engine_run_next;
        ] );
      ( "stats",
        [
          quick "basic moments" test_stats_basic;
          quick "empty sample" test_stats_empty;
          quick "percentiles" test_stats_percentile;
          quick "NaN excluded" test_stats_nan_excluded;
          quick "all-NaN sample is empty" test_stats_all_nan_is_empty;
          quick "single sample" test_stats_single_sample;
          quick "p0/p100 exact past capacity" test_stats_p0_p100_exact;
          quick "bounded memory" test_stats_bounded_memory;
          QCheck_alcotest.to_alcotest prop_percentile_bounded;
          QCheck_alcotest.to_alcotest prop_mean_welford_matches_naive;
        ] );
    ]
