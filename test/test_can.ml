(* Tests for the CAN bus simulator: identifiers, CRC, stuffing, frames,
   error confinement, filters, controller, bus and node. *)

module Identifier = Secpol_can.Identifier
module Crc = Secpol_can.Crc
module Wire = Secpol_can.Wire
module Frame = Secpol_can.Frame
module Errors = Secpol_can.Errors
module Acceptance = Secpol_can.Acceptance
module Transceiver = Secpol_can.Transceiver
module Controller = Secpol_can.Controller
module Bus = Secpol_can.Bus
module Node = Secpol_can.Node
module Trace = Secpol_can.Trace
module Engine = Secpol_sim.Engine
module Rng = Secpol_sim.Rng

let check = Alcotest.check

let quick name f = Alcotest.test_case name `Quick f

(* ---------- Binary heap (the bus arbitration queue) ---------- *)

module Binheap = Secpol_sim.Binheap

let heap_drain h =
  let rec go acc =
    match Binheap.pop h with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let prop_binheap_sorted =
  QCheck.Test.make ~name:"binheap pops in cmp order" ~count:300
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let h = Binheap.create ~cmp:compare () in
      List.iter (Binheap.push h) xs;
      heap_drain h = List.sort compare xs)

let test_binheap_basics () =
  let h = Binheap.create ~capacity:2 ~cmp:compare () in
  Alcotest.(check bool) "empty" true (Binheap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Binheap.peek h);
  Alcotest.(check (option int)) "pop empty" None (Binheap.pop h);
  List.iter (Binheap.push h) [ 5; 1; 4; 1; 3 ];
  check Alcotest.int "length" 5 (Binheap.length h);
  Alcotest.(check (option int)) "peek is min" (Some 1) (Binheap.peek h);
  check Alcotest.int "peek does not remove" 5 (Binheap.length h);
  Alcotest.(check (list int)) "duplicates survive" [ 1; 1; 3; 4; 5 ]
    (heap_drain h)

let test_binheap_drain_if () =
  let h = Binheap.create ~cmp:compare () in
  for i = 0 to 9 do
    Binheap.push h i
  done;
  let evens = Binheap.drain_if h (fun x -> x mod 2 = 0) in
  Alcotest.(check (list int)) "dropped the evens" [ 0; 2; 4; 6; 8 ]
    (List.sort compare evens);
  check Alcotest.int "survivors stay" 5 (Binheap.length h);
  Alcotest.(check (list int)) "survivors still pop in order" [ 1; 3; 5; 7; 9 ]
    (heap_drain h);
  Alcotest.(check (list int)) "drain on empty" []
    (Binheap.drain_if h (fun _ -> true))

(* ---------- Identifiers ---------- *)

let test_id_ranges () =
  check Alcotest.int "standard" 0x7FF (Identifier.raw (Identifier.standard 0x7FF));
  check Alcotest.int "extended" 0x1FFFFFFF
    (Identifier.raw (Identifier.extended 0x1FFFFFFF));
  Alcotest.check_raises "standard overflow"
    (Invalid_argument "Identifier.standard: 0x800 out of 11-bit range")
    (fun () -> ignore (Identifier.standard 0x800));
  (match Identifier.standard (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted negative id")

let test_id_arbitration () =
  let cmp a b = Identifier.arbitration_compare a b in
  Alcotest.(check bool) "lower wins" true
    (cmp (Identifier.standard 0x100) (Identifier.standard 0x200) < 0);
  Alcotest.(check bool) "equal" true
    (cmp (Identifier.standard 5) (Identifier.standard 5) = 0);
  (* same base id: standard beats extended *)
  let std = Identifier.standard 0x123 in
  let ext = Identifier.extended (0x123 lsl 18) in
  Alcotest.(check bool) "std beats ext on equal base" true (cmp std ext < 0);
  (* extended ordering by extension when bases equal *)
  let e1 = Identifier.extended ((0x123 lsl 18) lor 1) in
  let e2 = Identifier.extended ((0x123 lsl 18) lor 2) in
  Alcotest.(check bool) "extension breaks tie" true (cmp e1 e2 < 0);
  (* base id dominates: extended with lower base beats standard higher base *)
  let low_ext = Identifier.extended (0x050 lsl 18) in
  Alcotest.(check bool) "lower base wins regardless of format" true
    (cmp low_ext std < 0)

let test_id_base () =
  check Alcotest.int "standard base" 0x123 (Identifier.base_id (Identifier.standard 0x123));
  check Alcotest.int "extended base" 0x7FF
    (Identifier.base_id (Identifier.extended (0x7FF lsl 18)))

(* the wire as bits and back *)
let bits_of_wire wire = List.init (Wire.length wire) (Wire.get wire)

let wire_of_bits bits =
  let bits = Array.of_list bits in
  Wire.init (Array.length bits) (Array.get bits)

(* ---------- CRC ---------- *)

let crc_of bits =
  List.fold_left (fun crc b -> Crc.feed crc (Bool.to_int b) ~bits:1) 0 bits

let test_crc_stable () =
  let bits = [ true; false; true; true; false ] in
  check Alcotest.int "deterministic" (crc_of bits) (crc_of bits);
  Alcotest.(check bool) "15-bit" true (crc_of bits land lnot 0x7FFF = 0)

let test_crc_detects_flip () =
  let bits = List.init 64 (fun i -> i mod 3 = 0) in
  let flipped = List.mapi (fun i b -> if i = 10 then not b else b) bits in
  Alcotest.(check bool) "flip changes CRC" true
    (crc_of bits <> crc_of flipped)

(* feeding a field at once is feeding its bits one by one, MSB first,
   for every field width a frame uses and then some *)
let test_crc_feed_fields () =
  let bits_of value n = List.init n (fun i -> (value lsr (n - 1 - i)) land 1 = 1) in
  let rand = Random.State.make [| 15 |] in
  for bits = 0 to 30 do
    for _ = 1 to 20 do
      let crc = Random.State.int rand 0x8000 in
      let value = Random.State.bits rand in
      let expected =
        List.fold_left
          (fun crc b -> Crc.feed crc (Bool.to_int b) ~bits:1)
          crc (bits_of value bits)
      in
      check Alcotest.int
        (Printf.sprintf "%d bits of 0x%x into 0x%x" bits value crc)
        expected (Crc.feed crc value ~bits)
    done
  done;
  check Alcotest.int "fields in turn"
    (crc_of (bits_of 0x5A3 11 @ bits_of 0x2 2 @ bits_of 0xDEAD 16))
    (Crc.feed (Crc.feed (Crc.feed 0 0x5A3 ~bits:11) 0x2 ~bits:2) 0xDEAD ~bits:16)

(* ---------- Bit stuffing ---------- *)

let stuff bits =
  let w = Wire.writer (2 * List.length bits) in
  List.iter (fun b -> Wire.stuffed w (Bool.to_int b) ~bits:1) bits;
  Wire.contents w

let test_stuff_simple () =
  let w = Wire.writer 8 in
  Wire.stuffed w 0b11111 ~bits:5;
  let stuffed = Wire.contents w in
  check Alcotest.int "one stuff bit" 6 (Wire.length stuffed);
  Alcotest.(check bool) "stuff bit is opposite" false (Wire.get stuffed 5)

let test_stuff_restarts_run () =
  (* 10 equal bits -> stuff after 5, then the stuff bit restarts the count *)
  let w = Wire.writer 16 in
  Wire.stuffed w 0x3FF ~bits:10;
  check Alcotest.int "length" 12 (Wire.length (Wire.contents w))

let test_unstuff_violation () =
  match Wire.unstuff (Wire.init 6 (fun _ -> true)) ~len:6 with
  | Ok _ -> Alcotest.fail "accepted six equal bits"
  | Error _ -> ()

let prop_stuff_roundtrip =
  QCheck.Test.make ~name:"stuff/unstuff round trip" ~count:500
    QCheck.(list_of_size Gen.(0 -- 200) bool)
    (fun bits ->
      let stuffed = stuff bits in
      match Wire.unstuff stuffed ~len:(Wire.length stuffed) with
      | Ok bits' -> bits = bits_of_wire bits'
      | Error _ -> false)

let never_six bits =
  let rec scan run prev = function
    | [] -> true
    | b :: rest ->
        let run = if b = prev then run + 1 else 1 in
        run <= 5 && scan run b rest
  in
  match bits with [] -> true | b :: rest -> scan 1 b rest

let prop_stuffed_never_six =
  QCheck.Test.make ~name:"stuffed stream never has six equal bits" ~count:500
    QCheck.(list_of_size Gen.(0 -- 200) bool)
    (fun bits -> never_six (bits_of_wire (stuff bits)))

(* ---------- Frames ---------- *)

let test_frame_construction () =
  let f = Frame.data_std 0x0F0 "\x01\x02\x03" in
  check Alcotest.int "dlc" 3 f.Frame.dlc;
  Alcotest.(check bool) "not remote" false f.Frame.rtr;
  Alcotest.(check (list int)) "payload bytes" [ 1; 2; 3 ] (Frame.payload_bytes f);
  Alcotest.check_raises "payload too long"
    (Invalid_argument "Frame.data: payload exceeds 8 bytes") (fun () ->
      ignore (Frame.data_std 1 "123456789"))

let test_remote_frame () =
  let f = Frame.remote (Identifier.standard 0x123) ~dlc:4 in
  Alcotest.(check bool) "rtr" true f.Frame.rtr;
  check Alcotest.int "dlc" 4 f.Frame.dlc;
  check Alcotest.string "no payload" "" f.Frame.payload;
  Alcotest.check_raises "dlc range" (Invalid_argument "Frame.remote: dlc outside 0..8")
    (fun () -> ignore (Frame.remote (Identifier.standard 1) ~dlc:9))

let test_frame_wire_roundtrip_basic () =
  let cases =
    [
      Frame.data_std 0x000 "";
      Frame.data_std 0x7FF "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF";
      Frame.data_ext 0x1FFFFFFF "\x00";
      Frame.remote (Identifier.standard 0x123) ~dlc:8;
      Frame.remote (Identifier.extended 0x12345) ~dlc:0;
    ]
  in
  List.iter
    (fun f ->
      match Frame.of_wire (Frame.to_wire f) with
      | Ok f' -> Alcotest.(check bool) "round trip" true (Frame.equal f f')
      | Error (_, e) -> Alcotest.fail e)
    cases

let test_frame_wire_length () =
  let f = Frame.data_std 0x100 "\x01" in
  check Alcotest.int "length matches" (Wire.length (Frame.to_wire f))
    (Frame.wire_length f);
  (* standard frame, 1 data byte: 1+11+1+1+1+4+8+15 = 42 bits + stuffing + 10 trailer *)
  Alcotest.(check bool) "plausible size" true
    (Frame.wire_length f >= 52 && Frame.wire_length f <= 60)

let test_frame_transmission_time () =
  let f = Frame.data_std 0x100 "\x01" in
  let t = Frame.transmission_time f ~bitrate:500_000.0 in
  Alcotest.(check bool) "plausible time" true (t > 0.0001 && t < 0.0002);
  Alcotest.check_raises "bad bitrate"
    (Invalid_argument "Frame.transmission_time: bitrate <= 0") (fun () ->
      ignore (Frame.transmission_time f ~bitrate:0.0))

let test_frame_corrupt_detected () =
  let f = Frame.data_std 0x2A5 "\xDE\xAD" in
  let wire = Frame.to_wire f in
  let rng = Rng.create 5L in
  let detected = ref 0 in
  for _ = 1 to 50 do
    match Frame.of_wire (Transceiver.corrupt rng wire) with
    | Ok f' when Frame.equal f f' -> ()
    | Ok _ | Error _ -> incr detected
  done;
  (* single bit flips must essentially always be detected (CRC-15) *)
  Alcotest.(check bool)
    (Printf.sprintf "detected %d/50" !detected)
    true (!detected >= 49)

let test_frame_truncated () =
  match Frame.of_wire (wire_of_bits [ true; false; true ]) with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

(* a data or remote frame over identifiers from [ident] and payload bytes
   from [byte] *)
let frame_of_gen ~ident ~byte =
  QCheck.Gen.(
    let* ident = ident in
    let* rtr = bool in
    if rtr then
      let* dlc = 0 -- 8 in
      return (Frame.remote ident ~dlc)
    else
      let* payload = string_size ~gen:byte (0 -- 8) in
      return (Frame.data ident payload))

let frame_gen =
  frame_of_gen
    ~ident:
      QCheck.Gen.(
        let* extended = bool in
        if extended then map Identifier.extended (0 -- 0x1FFFFFFF)
        else map Identifier.standard (0 -- 0x7FF))
    ~byte:QCheck.Gen.(map Char.chr (0 -- 255))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame wire round trip" ~count:500 (QCheck.make frame_gen)
    (fun f ->
      match Frame.of_wire (Frame.to_wire f) with
      | Ok f' -> Frame.equal f f'
      | Error _ -> false)

(* The bus times frames by [wire_length], which counts the stuffed bits
   without encoding: it must agree with the encoder to the bit. *)
let counted_matches_encoded f =
  Frame.wire_length f = Wire.length (Frame.to_wire f)

let prop_wire_length_counted =
  QCheck.Test.make ~name:"counted length = encoded length" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Frame.pp) frame_gen)
    counted_matches_encoded

(* Frames made of long runs: all-0 and all-1 identifiers, and bytes whose
   runs of four or five cross byte, field and CRC boundaries, so that
   stuff bits land everywhere a counter could lose its run. *)
let stuffing_dense_gen =
  frame_of_gen
    ~ident:
      (QCheck.Gen.oneofl
         [
           Identifier.standard 0x000;
           Identifier.standard 0x7FF;
           Identifier.extended 0x000;
           Identifier.extended 0x1FFFFFFF;
         ])
    ~byte:(QCheck.Gen.oneofl [ '\x00'; '\xFF'; '\x0F'; '\xF0'; '\x1F'; '\xF8' ])

let prop_wire_length_dense =
  QCheck.Test.make ~name:"counted length, stuffing-dense" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" Frame.pp) stuffing_dense_gen)
    counted_matches_encoded

(* Minor words [n] calls of [wire_length] allocate, over a spread of frame
   shapes; [n = 0] measures the probe's own constant. *)
let wire_length_words n =
  let frames =
    [|
      Frame.data_std 0x000 "";
      Frame.data_std 0x7FF "\xFF\x00\x0F\xF0\x1F\xF8\xFF\x00";
      Frame.data_ext 0x1FFFFFFF "\x01\x02\x03";
      Frame.remote (Identifier.extended 0x12345) ~dlc:8;
    |]
  in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    sum := !sum + Frame.wire_length frames.(i land 3)
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sum);
  words

let test_wire_length_allocates_nothing () =
  Alcotest.(check (float 0.5))
    "10k calls allocate 0 words" (wire_length_words 0)
    (wire_length_words 10_000)

(* ---------- Codec properties: what any wire encoding must keep ---------- *)

(* the CRC delimiter, ACK slot, ACK delimiter and end of frame *)
let trailer_bits = 10

let stuffed_section f =
  let wire = Frame.to_wire f in
  List.init (Wire.length wire - trailer_bits) (Wire.get wire)

let prop_wire_never_six =
  QCheck.Test.make ~name:"stuffed section never has six equal bits"
    ~count:500 (QCheck.make frame_gen) (fun f ->
      stuffed_section f <> [] && never_six (stuffed_section f))

(* SOF through the data field, unstuffed: the bits the CRC covers *)
let crc_covered f =
  let wire = Frame.to_wire f in
  match Wire.unstuff wire ~len:(Wire.length wire - trailer_bits) with
  | Error e -> failwith e
  | Ok bits -> List.init (Wire.length bits - Crc.width) (Wire.get bits)

(* A burst of length [len] flips its first and last bit and any of the
   bits between; CRC-15's generator has a constant term, so no burst of
   up to 15 bits is a multiple of it. *)
let burst_gen =
  QCheck.Gen.(
    let* f = frame_gen in
    let n = List.length (crc_covered f) in
    let* len = 1 -- 15 in
    let* start = 0 -- (n - len) in
    let* inner = list_repeat (max 0 (len - 2)) bool in
    let pattern = (true :: inner) @ if len > 1 then [ true ] else [] in
    return (f, start, pattern))

let prop_crc_catches_bursts =
  QCheck.Test.make ~name:"CRC-15 changes under every burst of 1-15 bits"
    ~count:1000
    (QCheck.make
       ~print:(fun (f, start, pattern) ->
         Format.asprintf "%a, burst of %d at %d" Frame.pp f
           (List.length pattern) start)
       burst_gen)
    (fun (f, start, pattern) ->
      let bits = crc_covered f in
      let burst =
        List.mapi
          (fun i b ->
            let j = i - start in
            if j >= 0 && j < List.length pattern then b <> List.nth pattern j
            else b)
          bits
      in
      crc_of burst <> crc_of bits)

(* What a receiver makes of a wire: the frame, or the error text and the
   line-error class a controller would signal. *)
let decode_outcome wire =
  match Frame.of_wire wire with
  | Ok f -> Format.asprintf "ok %a" Frame.pp f
  | Error (e, msg) ->
      Printf.sprintf "error %s (%s)" msg (Transceiver.line_error_name e)

(* A seeded corpus of damaged wires: 10,000 generated frames, each with
   one to three bit flips or a truncation.  The digest over every
   decode's outcome pins the decoder's verdicts, error texts and their
   order of precedence.  It was recorded with a separate implementation
   of the codec, over bool lists, so it pins the behaviour rather than
   this implementation. *)
let test_decode_corpus () =
  let rand = Random.State.make [| 2018 |] in
  let buf = Buffer.create (1 lsl 20) in
  for _ = 1 to 10_000 do
    let f = QCheck.Gen.generate1 ~rand frame_gen in
    let bits = bits_of_wire (Frame.to_wire f) in
    let n = List.length bits in
    let damaged =
      match Random.State.int rand 4 with
      | 0 ->
          let keep = Random.State.int rand n in
          List.filteri (fun i _ -> i < keep) bits
      | flips ->
          let at = List.init flips (fun _ -> Random.State.int rand n) in
          List.mapi
            (fun i b ->
              if List.length (List.filter (( = ) i) at) mod 2 = 1 then not b
              else b)
            bits
    in
    Buffer.add_string buf (decode_outcome (wire_of_bits damaged));
    Buffer.add_char buf '\n'
  done;
  check Alcotest.string "decode corpus digest" "471490f30f586058c390a4789183d97b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------- Error confinement ---------- *)

let test_error_states () =
  let e = Errors.create () in
  Alcotest.(check bool) "starts active" true (Errors.state e = Errors.Error_active);
  for _ = 1 to 16 do
    Errors.on_tx_error e
  done;
  Alcotest.(check bool) "passive at 128" true (Errors.state e = Errors.Error_passive);
  for _ = 1 to 16 do
    Errors.on_tx_error e
  done;
  Alcotest.(check bool) "bus off past 255" true (Errors.state e = Errors.Bus_off);
  Alcotest.(check bool) "cannot transmit" false (Errors.can_transmit e);
  Errors.reset e;
  Alcotest.(check bool) "reset to active" true (Errors.state e = Errors.Error_active)

let test_error_decay () =
  let e = Errors.create () in
  Errors.on_tx_error e;
  check Alcotest.int "tec +8" 8 (Errors.tec e);
  for _ = 1 to 20 do
    Errors.on_tx_success e
  done;
  check Alcotest.int "tec floor 0" 0 (Errors.tec e)

let test_rec_counter () =
  let e = Errors.create () in
  for _ = 1 to 128 do
    Errors.on_rx_error e
  done;
  Alcotest.(check bool) "rx errors alone reach passive" true
    (Errors.state e = Errors.Error_passive);
  for _ = 1 to 10 do
    Errors.on_rx_success e
  done;
  check Alcotest.int "rec decays" 118 (Errors.rec_ e)

(* ---------- Acceptance filters ---------- *)

let test_acceptance () =
  let f = Acceptance.exact (Identifier.standard 0x100) in
  Alcotest.(check bool) "exact hit" true (Acceptance.matches f (Identifier.standard 0x100));
  Alcotest.(check bool) "exact miss" false (Acceptance.matches f (Identifier.standard 0x101));
  Alcotest.(check bool) "format mismatch" false
    (Acceptance.matches f (Identifier.extended 0x100));
  let masked = Acceptance.make ~mask:0x700 ~value:0x100 () in
  Alcotest.(check bool) "mask hit" true (Acceptance.matches masked (Identifier.standard 0x1FF));
  Alcotest.(check bool) "mask miss" false (Acceptance.matches masked (Identifier.standard 0x200));
  Alcotest.(check bool) "empty bank accepts all" true
    (Acceptance.accepts [] (Identifier.standard 0x7FF));
  Alcotest.(check bool) "bank any-of" true
    (Acceptance.accepts [ f; masked ] (Identifier.standard 0x150))

(* ---------- Controller ---------- *)

let test_controller_receive () =
  let c = Controller.create ~name:"c" () in
  let f = Frame.data_std 0x100 "\x01" in
  (match Controller.receive c (Transceiver.receive (Frame.to_wire f)) with
  | Controller.Deliver f' -> Alcotest.(check bool) "delivered" true (Frame.equal f f')
  | _ -> Alcotest.fail "expected delivery");
  Controller.set_filters c [ Acceptance.exact (Identifier.standard 0x200) ];
  (match Controller.receive c (Transceiver.receive (Frame.to_wire f)) with
  | Controller.Filtered _ -> ()
  | _ -> Alcotest.fail "expected filtering");
  let stats = Controller.stats c in
  check Alcotest.int "delivered count" 1 stats.Controller.rx_delivered;
  check Alcotest.int "filtered count" 1 stats.Controller.rx_filtered

let test_controller_line_error () =
  let c = Controller.create ~name:"c" () in
  let garbage = wire_of_bits [ true; true; true ] in
  (match Controller.receive c (Transceiver.receive garbage) with
  | Controller.Line_error _ -> ()
  | _ -> Alcotest.fail "expected line error");
  check Alcotest.int "rec bumped" 1 (Errors.rec_ (Controller.errors c))

(* ---------- Bus + node integration ---------- *)

let make_bus ?corrupt_prob ?(bitrate = 500_000.0) () =
  let sim = Engine.create () in
  (sim, Bus.create ?corrupt_prob ~bitrate sim)

let test_bus_delivery () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let c = Node.create ~name:"c" bus in
  let f = Frame.data_std 0x123 "\x2A" in
  Alcotest.(check bool) "send accepted" true (Node.send a f);
  Engine.run_until sim 0.01;
  check Alcotest.int "b received" 1 (Node.received_count b);
  check Alcotest.int "c received" 1 (Node.received_count c);
  check Alcotest.int "sender does not self-receive" 0 (Node.received_count a);
  (match Node.last_received b with
  | Some f' -> Alcotest.(check bool) "payload intact" true (Frame.equal f f')
  | None -> Alcotest.fail "nothing received");
  check Alcotest.int "frames sent" 1 (Bus.frames_sent bus)

(* A clean transmission reads back as the frame sent, so the bus hands
   every receiver that frame itself, not a decoded copy. *)
let test_bus_hands_over_sent_frame () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let c = Node.create ~name:"c" bus in
  let f = Frame.data_ext 0x1ABCDEF "\x00\xFF\x0F" in
  ignore (Node.send a f);
  Engine.run_until sim 0.01;
  List.iter
    (fun n ->
      match Node.last_received n with
      | Some f' ->
          Alcotest.(check bool)
            (Node.name n ^ " holds the sent frame")
            true (f' == f)
      | None -> Alcotest.fail (Node.name n ^ " received nothing"))
    [ b; c ]

let test_bus_arbitration_order () =
  let sim, bus = make_bus () in
  let tx = Node.create ~name:"tx" bus in
  let rx = Node.create ~name:"rx" bus in
  (* queue three frames while the bus is busy; they must arrive in priority
     order regardless of submission order *)
  ignore (Node.send tx (Frame.data_std 0x400 ""));
  ignore (Node.send tx (Frame.data_std 0x300 ""));
  ignore (Node.send tx (Frame.data_std 0x100 ""));
  ignore (Node.send tx (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  let ids =
    List.map (fun (f : Frame.t) -> Identifier.raw f.id) (Node.received rx)
  in
  (* 0x400 goes first (bus idle when submitted), then priority order *)
  Alcotest.(check (list int)) "priority order" [ 0x400; 0x100; 0x200; 0x300 ] ids

let test_bus_timing () =
  let sim, bus = make_bus ~bitrate:125_000.0 () in
  let a = Node.create ~name:"a" bus in
  let received_at = ref 0.0 in
  let b = Node.create ~name:"b" bus in
  Node.set_on_receive b (fun _ ~sender:_ _ -> received_at := Engine.now sim);
  ignore (Node.send a (Frame.data_std 0x100 "\x01\x02\x03\x04"));
  Engine.run_until sim 1.0;
  (* ~75-90 bits at 125kbit/s: several hundred microseconds *)
  Alcotest.(check bool)
    (Printf.sprintf "received at %.6f" !received_at)
    true
    (!received_at > 0.0005 && !received_at < 0.001)

let test_bus_corruption_retransmits () =
  (* corrupt_prob 1.0: every attempt fails; frame is abandoned after retries *)
  let sim, bus = make_bus ~corrupt_prob:1.0 () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let outcome = ref None in
  ignore
    (Node.send a (Frame.data_std 0x100 "") ~on_outcome:(fun o ->
         outcome := Some o));
  Engine.run_until sim 1.0;
  check Alcotest.int "never delivered" 0 (Node.received_count b);
  (match !outcome with
  | Some Bus.Abandoned -> ()
  | _ -> Alcotest.fail "expected abandonment");
  let stats = Controller.stats (Node.controller a) in
  Alcotest.(check bool) "tx errors counted" true (stats.Controller.tx_errors >= 16);
  Alcotest.(check bool) "receiver saw wire errors" true
    (Errors.rec_ (Controller.errors (Node.controller b)) > 0)

let test_bus_off_node_refuses () =
  let sim, bus = make_bus ~corrupt_prob:1.0 () in
  let a = Node.create ~name:"a" bus in
  let _b = Node.create ~name:"b" bus in
  (* drive the transmitter to bus-off: each attempt +8 TEC, 16 retries per
     send -> two sends exceed 255 *)
  for _ = 1 to 3 do
    ignore (Node.send a (Frame.data_std 0x100 ""));
    Engine.run_until sim (Engine.now sim +. 1.0)
  done;
  Alcotest.(check bool) "bus off" true
    (Errors.state (Controller.errors (Node.controller a)) = Errors.Bus_off);
  Alcotest.(check bool) "send refused" false (Node.send a (Frame.data_std 0x100 ""))

let test_node_gates () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  Node.set_tx_gate a ~name:"wgate" (fun f -> Identifier.raw f.Frame.id <> 0x666);
  Node.set_rx_gate b ~name:"rgate" (fun f -> Identifier.raw f.Frame.id <> 0x100);
  Alcotest.(check bool) "write gate blocks" false
    (Node.send a (Frame.data_std 0x666 ""));
  Alcotest.(check bool) "write gate passes" true
    (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  let ids =
    List.map (fun (f : Frame.t) -> Identifier.raw f.Frame.id) (Node.received b)
  in
  Alcotest.(check (list int)) "read gate drops 0x100" [ 0x200 ] ids;
  check Alcotest.int "block traced" 1 (List.length (Trace.blocked_at (Bus.trace bus) "b"));
  Node.clear_gates a;
  Alcotest.(check bool) "gate cleared" true (Node.send a (Frame.data_std 0x666 ""))

let test_node_acceptance_filters () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b =
    Node.create ~filters:[ Acceptance.exact (Identifier.standard 0x100) ] ~name:"b" bus
  in
  ignore (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send a (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "only matching delivered" 1 (Node.received_count b)

let test_bus_duplicate_name () =
  let _, bus = make_bus () in
  let _ = Node.create ~name:"a" bus in
  Alcotest.check_raises "duplicate" (Invalid_argument "Bus.attach: duplicate station \"a\"")
    (fun () -> ignore (Node.create ~name:"a" bus))

let test_detach () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  Node.detach b;
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "detached receives nothing" 0 (Node.received_count b);
  Alcotest.(check (list string)) "stations" [ "a" ] (Bus.stations bus)

let test_bus_utilisation () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let _b = Node.create ~name:"b" bus in
  check Alcotest.(float 0.0) "zero at start" 0.0 (Bus.utilisation bus);
  for _ = 1 to 100 do
    ignore (Node.send a (Frame.data_std 0x100 "\x01\x02\x03\x04"))
  done;
  Engine.run_until sim 0.02;
  Alcotest.(check bool) "busy bus" true (Bus.utilisation bus > 0.5)

let test_trace_contents () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let _b = Node.create ~name:"b" bus in
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  let tr = Bus.trace bus in
  check Alcotest.int "tx-ok entries" 1
    (Trace.count tr (fun e -> e.Trace.event = Trace.Tx_ok));
  check Alcotest.int "delivery entries" 1
    (List.length (Trace.deliveries_to tr "b"));
  (* receive entries are attributed to the sender *)
  (match Trace.deliveries_to tr "b" with
  | [ e ] -> check Alcotest.string "sender attribution" "a" e.Trace.node
  | _ -> Alcotest.fail "expected exactly one delivery")

(* ---------- Gateway ---------- *)

module Gateway = Secpol_can.Gateway

let test_gateway_forwards_whitelisted () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let receiver = Node.create ~name:"receiver" bus_b in
  let allow (f : Frame.t) = Identifier.raw f.id = 0x100 in
  let gw =
    Gateway.connect ~name:"gw" ~a:bus_a ~b:bus_b ~forward_a_to_b:allow
      ~forward_b_to_a:allow ()
  in
  ignore (Node.send sender (Frame.data_std 0x100 "\x01"));
  ignore (Node.send sender (Frame.data_std 0x200 "\x02"));
  Engine.run_until sim 0.01;
  check Alcotest.int "only whitelisted crossed" 1 (Node.received_count receiver);
  check Alcotest.int "forwarded" 1 (Gateway.forwarded gw);
  check Alcotest.int "dropped" 1 (Gateway.dropped gw);
  (match Node.last_received receiver with
  | Some f -> check Alcotest.int "payload intact" 0x100 (Identifier.raw f.Frame.id)
  | None -> Alcotest.fail "nothing crossed")

let test_gateway_bidirectional_no_loop () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let a = Node.create ~name:"a" bus_a in
  let b = Node.create ~name:"b" bus_b in
  let _gw =
    Gateway.connect ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  ignore (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send b (Frame.data_std 0x200 ""));
  Engine.run_until sim 0.05;
  (* each side sees exactly the other's frame once: no ping-pong storm *)
  check Alcotest.int "a sees one" 1 (Node.received_count a);
  check Alcotest.int "b sees one" 1 (Node.received_count b)

let test_gateway_validation_and_disconnect () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  (match
     Gateway.connect ~name:"gw" ~a:bus_a ~b:bus_a
       ~forward_a_to_b:(fun _ -> true)
       ~forward_b_to_a:(fun _ -> true)
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a self-bridge");
  let sender = Node.create ~name:"sender" bus_a in
  let receiver = Node.create ~name:"receiver" bus_b in
  let gw =
    Gateway.connect ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  Gateway.disconnect gw;
  ignore (Node.send sender (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "nothing crosses after disconnect" 0
    (Node.received_count receiver)

(* ---------- fault-injection points ---------- *)

let test_detach_drops_queued () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let abandoned = ref 0 in
  ignore (Node.send a (Frame.data_std 0x100 ""));
  for i = 0 to 2 do
    ignore
      (Node.send b
         ~on_outcome:(fun o -> if o = Bus.Abandoned then incr abandoned)
         (Frame.data_std (0x200 + i) ""))
  done;
  (* a's frame went straight onto the idle wire; b's three are queued *)
  check Alcotest.int "three queued behind the wire" 3 (Bus.pending bus);
  Node.detach b;
  (* b's queued frames leave arbitration with it, accounted as abandoned *)
  check Alcotest.int "queue emptied" 0 (Bus.pending bus);
  check Alcotest.int "owner told" 3 !abandoned;
  check Alcotest.int "bus abandonment counter" 3 (Bus.abandoned bus);
  Engine.run_until sim 0.01;
  check Alcotest.int "a's frame still completes" 1 (Bus.frames_sent bus);
  check Alcotest.int "nothing ghost-delivered" 3
    (Trace.count (Bus.trace bus) (fun e -> e.Trace.event = Trace.Tx_abandoned))

let test_crash_restart_cycle () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  Node.crash b;
  Alcotest.(check bool) "down" true (Node.is_down b);
  Alcotest.(check bool) "off the bus" false (Node.attached b);
  Alcotest.(check bool) "tx refused while down" false
    (Node.send b (Frame.data_std 0x200 ""));
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "rx inert while down" 0 (Node.received_count b);
  Node.restart b;
  Alcotest.(check bool) "back on the bus" true (Node.attached b);
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.02;
  check Alcotest.int "receives after restart" 1 (Node.received_count b)

let test_busoff_rejoin_after_recovery () =
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let b = Node.create ~name:"b" bus in
  let errs = Controller.errors (Node.controller a) in
  for _ = 1 to 32 do
    Errors.on_tx_error errs
  done;
  Alcotest.(check bool) "driven bus-off" true (Errors.state errs = Errors.Bus_off);
  Alcotest.(check bool) "send refused bus-off" false
    (Node.send a (Frame.data_std 0x100 ""));
  (* power-cycle: counters reset, station rejoins, traffic flows again *)
  Node.crash a;
  Node.restart a;
  Alcotest.(check bool) "error-active again" true
    (Errors.state errs = Errors.Error_active);
  Alcotest.(check bool) "send accepted after recovery" true
    (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.01;
  check Alcotest.int "frame delivered after rejoin" 1 (Node.received_count b)

let test_error_confinement_boundaries () =
  (* exact ISO thresholds: passive strictly above 127, bus-off strictly
     above 255 *)
  let e = Errors.create () in
  for _ = 1 to 127 do
    Errors.on_rx_error e
  done;
  Alcotest.(check bool) "rec 127 still active" true
    (Errors.state e = Errors.Error_active);
  Errors.on_rx_error e;
  Alcotest.(check bool) "rec 128 passive" true
    (Errors.state e = Errors.Error_passive);
  Alcotest.(check bool) "passive may still transmit" true (Errors.can_transmit e);
  (* REC decays on successful receptions back under the threshold *)
  for _ = 1 to 128 do
    Errors.on_rx_success e
  done;
  check Alcotest.int "rec decayed to floor" 0 (Errors.rec_ e);
  Alcotest.(check bool) "active after decay" true
    (Errors.state e = Errors.Error_active);
  (* TEC path: +8 per error, passive past 127, bus-off past 255 *)
  for _ = 1 to 16 do
    Errors.on_tx_error e
  done;
  check Alcotest.int "tec 128" 128 (Errors.tec e);
  Alcotest.(check bool) "tec 128 passive" true
    (Errors.state e = Errors.Error_passive);
  for _ = 1 to 15 do
    Errors.on_tx_error e
  done;
  check Alcotest.int "tec 248" 248 (Errors.tec e);
  Alcotest.(check bool) "248 still passive" true
    (Errors.state e = Errors.Error_passive);
  Errors.on_tx_error e;
  Alcotest.(check bool) "256 bus-off" true (Errors.state e = Errors.Bus_off);
  Alcotest.(check bool) "bus-off cannot transmit" false (Errors.can_transmit e);
  (* a bus-off controller accrues no further errors while recovering *)
  Errors.on_tx_error e;
  Errors.on_rx_error e;
  check Alcotest.int "tec frozen bus-off" 256 (Errors.tec e);
  check Alcotest.int "rec frozen bus-off" 0 (Errors.rec_ e);
  Errors.reset e;
  Alcotest.(check bool) "reset recovers" true (Errors.can_transmit e);
  check Alcotest.int "counters cleared" 0 (Errors.tec e)

let test_gateway_sheds_at_capacity () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  (* destination segment is two orders of magnitude slower, so one forward
     stays in flight while more admissions arrive *)
  let bus_b = Bus.create ~bitrate:5_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let receiver = Node.create ~name:"receiver" bus_b in
  let gw =
    Gateway.connect ~max_in_flight:1 ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  for i = 0 to 2 do
    ignore (Node.send sender (Frame.data_std (0x100 + i) ""))
  done;
  Engine.run_until sim 1.0;
  check Alcotest.int "one carried" 1 (Gateway.forwarded gw);
  check Alcotest.int "excess shed at admission" 2 (Gateway.shed gw);
  check Alcotest.int "receiver saw the survivor" 1
    (Node.received_count receiver);
  check Alcotest.int "no forwards outstanding" 0 (Gateway.in_flight gw)

let test_gateway_retry_backoff_then_shed () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let receiver = Node.create ~name:"receiver" bus_b in
  let gw =
    Gateway.connect ~max_retries:2 ~retry_backoff:0.002 ~name:"gw" ~a:bus_a
      ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  (* destination segment storms with errors: every submission is abandoned
     by the bus, the gateway backs off and retries, then sheds *)
  Bus.set_corrupt_prob bus_b 1.0;
  ignore (Node.send sender (Frame.data_std 0x100 "\x01"));
  Engine.run_until sim 0.5;
  check Alcotest.int "retry budget spent" 2 (Gateway.retries gw);
  check Alcotest.int "then shed" 1 (Gateway.shed gw);
  check Alcotest.int "nothing crossed" 0 (Node.received_count receiver);
  check Alcotest.int "in-flight drained" 0 (Gateway.in_flight gw);
  (* the destination heals: forwarding resumes without reconnecting *)
  Bus.set_corrupt_prob bus_b 0.0;
  ignore (Node.send sender (Frame.data_std 0x101 "\x02"));
  Engine.run_until sim 1.0;
  check Alcotest.int "forwarding recovered" 1 (Gateway.forwarded gw);
  check Alcotest.int "frame arrived" 1 (Node.received_count receiver)

let test_gateway_deadline_sheds () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let _receiver = Node.create ~name:"receiver" bus_b in
  (* deadline shorter than one bus-level abandonment cycle: no gateway
     retry can be scheduled, the frame is shed on first abandonment *)
  let gw =
    Gateway.connect ~max_retries:5 ~retry_backoff:0.01 ~forward_timeout:0.005
      ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  Bus.set_corrupt_prob bus_b 1.0;
  ignore (Node.send sender (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.5;
  check Alcotest.int "no retries past the deadline" 0 (Gateway.retries gw);
  check Alcotest.int "shed once" 1 (Gateway.shed gw)

let test_gateway_retry_exhaustion_sheds_exactly_once () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let receiver = Node.create ~name:"receiver" bus_b in
  (* the deadline sits just past where the retry budget runs out: one
     abandonment cycle is ~1.8 ms, so retry 1 fires at ~3.9 ms and retry 2
     at ~9.6 ms, both inside the 11 ms window, and the second retry's
     abandonment at ~13.4 ms exhausts the budget.  Retry exhaustion and
     deadline expiry nearly coincide — the frame must still be accounted
     shed exactly once, through exactly one path *)
  let gw =
    Gateway.connect ~max_retries:2 ~retry_backoff:0.002 ~forward_timeout:0.011
      ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  Bus.set_corrupt_prob bus_b 1.0;
  ignore (Node.send sender (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.5;
  check Alcotest.int "both retries fit the window" 2 (Gateway.retries gw);
  check Alcotest.int "shed exactly once" 1 (Gateway.shed gw);
  check Alcotest.int "nothing crossed" 0 (Node.received_count receiver);
  check Alcotest.int "in-flight drained" 0 (Gateway.in_flight gw)

let test_gateway_backoff_doubling_respects_deadline () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let sender = Node.create ~name:"sender" bus_a in
  let _receiver = Node.create ~name:"receiver" bus_b in
  (* the first 2 ms backoff fits the 8 ms window (retry at ~3.9 ms), the
     doubled 4 ms backoff from the second abandonment at ~5.6 ms would
     land at ~9.6 ms — past the deadline, so no retry is scheduled and the
     frame is shed with most of the retry budget unspent *)
  let gw =
    Gateway.connect ~max_retries:5 ~retry_backoff:0.002 ~forward_timeout:0.008
      ~name:"gw" ~a:bus_a ~b:bus_b
      ~forward_a_to_b:(fun _ -> true)
      ~forward_b_to_a:(fun _ -> true)
      ()
  in
  Bus.set_corrupt_prob bus_b 1.0;
  ignore (Node.send sender (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.5;
  check Alcotest.int "only the first backoff fit" 1 (Gateway.retries gw);
  check Alcotest.int "then shed" 1 (Gateway.shed gw);
  check Alcotest.int "in-flight drained" 0 (Gateway.in_flight gw)

let test_gateway_per_direction_counters () =
  let sim = Engine.create () in
  let bus_a = Bus.create ~bitrate:500_000.0 sim in
  let bus_b = Bus.create ~bitrate:500_000.0 sim in
  let a = Node.create ~name:"a" bus_a in
  let b = Node.create ~name:"b" bus_b in
  let gw =
    Gateway.connect ~max_retries:1 ~retry_backoff:0.002 ~name:"gw" ~a:bus_a
      ~b:bus_b
      ~forward_a_to_b:(fun f -> Identifier.raw f.Frame.id = 0x100)
      ~forward_b_to_a:(fun f -> Identifier.raw f.Frame.id = 0x200)
      ()
  in
  (* healthy phase: one forward and one drop per direction *)
  ignore (Node.send a (Frame.data_std 0x100 ""));
  ignore (Node.send a (Frame.data_std 0x300 ""));
  ignore (Node.send b (Frame.data_std 0x200 ""));
  ignore (Node.send b (Frame.data_std 0x300 ""));
  Engine.run_until sim 0.1;
  (* one-sided fault: only the a->b destination storms with errors, so
     retries and sheds accrue on a->b while b->a stays clean *)
  Bus.set_corrupt_prob bus_b 1.0;
  ignore (Node.send a (Frame.data_std 0x100 ""));
  Engine.run_until sim 0.5;
  check Alcotest.int "a->b forwarded" 1 (Gateway.forwarded_dir gw `A_to_b);
  check Alcotest.int "b->a forwarded" 1 (Gateway.forwarded_dir gw `B_to_a);
  check Alcotest.int "a->b dropped" 1 (Gateway.dropped_dir gw `A_to_b);
  check Alcotest.int "b->a dropped" 1 (Gateway.dropped_dir gw `B_to_a);
  check Alcotest.int "a->b retried" 1 (Gateway.retries_dir gw `A_to_b);
  check Alcotest.int "b->a never retried" 0 (Gateway.retries_dir gw `B_to_a);
  check Alcotest.int "a->b shed" 1 (Gateway.shed_dir gw `A_to_b);
  check Alcotest.int "b->a never shed" 0 (Gateway.shed_dir gw `B_to_a);
  (* the aggregates are exactly the direction sums *)
  check Alcotest.int "forwarded sum" 2 (Gateway.forwarded gw);
  check Alcotest.int "dropped sum" 2 (Gateway.dropped gw);
  check Alcotest.int "retries sum" 1 (Gateway.retries gw);
  check Alcotest.int "shed sum" 1 (Gateway.shed gw)

let test_bus_corrupt_prob_setter () =
  let _, bus = make_bus ~corrupt_prob:0.25 () in
  check Alcotest.(float 0.0) "reads back" 0.25 (Bus.corrupt_prob bus);
  Bus.set_corrupt_prob bus 0.75;
  check Alcotest.(float 0.0) "updated" 0.75 (Bus.corrupt_prob bus);
  Alcotest.check_raises "rejects out of range"
    (Invalid_argument "Bus.set_corrupt_prob: probability outside [0,1]")
    (fun () -> Bus.set_corrupt_prob bus 1.5)

(* ---------- candump format ---------- *)

module Candump = Secpol_can.Candump

let test_candump_line_format () =
  let f = Frame.data_std 0x123 "\x2A\x36\x6C" in
  check Alcotest.string "data line" "(1436509052.249713) can0 123#2A366C"
    (Candump.line_of ~time:1436509052.249713 f);
  let r = Frame.remote (Identifier.standard 0x44) ~dlc:3 in
  check Alcotest.string "remote line" "(0.000000) vcan0 044#R3"
    (Candump.line_of ~interface:"vcan0" ~time:0.0 r);
  let e = Frame.data_ext 0x12345678 "" in
  check Alcotest.string "extended line" "(1.500000) can0 12345678#"
    (Candump.line_of ~time:1.5 e)

let test_candump_parse () =
  (match Candump.parse_line "(1436509052.249713) can0 123#2A366C" with
  | Ok r ->
      check Alcotest.(float 1e-6) "time" 1436509052.249713 r.Candump.time;
      check Alcotest.string "interface" "can0" r.Candump.interface;
      Alcotest.(check bool) "frame" true
        (Frame.equal r.Candump.frame (Frame.data_std 0x123 "\x2A\x36\x6C"))
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Candump.parse_line bad with
      | Ok _ -> Alcotest.fail ("accepted " ^ bad)
      | Error _ -> ())
    [
      "no timestamp can0 123#00";
      "(1.0) can0 123";
      "(1.0) can0 123#2A3";
      "(1.0) can0 123#R9";
      "(x) can0 123#00";
      "(1.0) can0 999999999#00";
      "(1.0) can0 123#001122334455667788";
    ]

let test_candump_parse_strict_digits () =
  (* int_of_string's literal extras (underscores, base prefixes, signs)
     are not valid candump and must not slip through *)
  List.iter
    (fun bad ->
      match Candump.parse_line bad with
      | Ok _ -> Alcotest.fail ("accepted " ^ bad)
      | Error _ -> ())
    [
      "(1.0) can0 1_2#DE";
      "(1.0) can0 0x12#DE";
      "(1.0) can0 +12#DE";
      "(1.0) can0 #DE";
      "(1.0) can0 123456789#DE";
      "(1.0) can0 12#R0_8";
      "(1.0) can0 12#R0x2";
      "(1.0) can0 12#R-1";
      "(1.0) can0 12#R12345";
    ];
  (* the strict parsers still take the full legitimate range *)
  (match Candump.parse_line "(1.0) can0 1FFFFFFF#DE" with
  | Ok r ->
      Alcotest.(check bool) "max extended id" true
        (Frame.equal r.Candump.frame (Frame.data_ext 0x1FFFFFFF "\xDE"))
  | Error e -> Alcotest.fail e);
  match Candump.parse_line "(1.0) can0 12#R8" with
  | Ok r ->
      Alcotest.(check bool) "remote dlc 8" true
        (Frame.equal r.Candump.frame (Frame.remote (Identifier.standard 0x12) ~dlc:8))
  | Error e -> Alcotest.fail e

let prop_candump_roundtrip =
  QCheck.Test.make ~name:"candump line round trip" ~count:300
    QCheck.(make Gen.(pair frame_gen (float_bound_inclusive 1e6)))
    (fun (frame, time) ->
      match Candump.parse_line (Candump.line_of ~time frame) with
      | Ok r ->
          Frame.equal r.Candump.frame frame
          && Float.abs (r.Candump.time -. time) < 1e-5
      | Error _ -> false)

let test_candump_export_import_replay () =
  (* record traffic on one bus, replay it onto a fresh one *)
  let sim, bus = make_bus () in
  let a = Node.create ~name:"a" bus in
  let _b = Node.create ~name:"b" bus in
  ignore (Node.send a (Frame.data_std 0x100 "\x01"));
  ignore (Node.send a (Frame.data_std 0x200 "\x02\x03"));
  Engine.run_until sim 0.01;
  let log = Candump.export (Bus.trace bus) in
  check Alcotest.int "two lines" 2
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' log)));
  match Candump.import log with
  | Error e -> Alcotest.fail e
  | Ok records ->
      check Alcotest.int "two records" 2 (List.length records);
      let sim2, bus2 = make_bus () in
      let _atk = Node.create ~name:"replayer" bus2 in
      let victim = Node.create ~name:"victim" bus2 in
      Candump.replay sim2 bus2 ~sender:"replayer" records;
      Engine.run_until sim2 1.0;
      check Alcotest.int "replayed onto the new bus" 2
        (Node.received_count victim)

let () =
  Alcotest.run "secpol_can"
    [
      ( "binheap",
        [
          quick "basics" test_binheap_basics;
          quick "drain_if" test_binheap_drain_if;
          QCheck_alcotest.to_alcotest prop_binheap_sorted;
        ] );
      ( "identifier",
        [
          quick "ranges" test_id_ranges;
          quick "arbitration" test_id_arbitration;
          quick "base id" test_id_base;
        ] );
      ( "crc",
        [
          quick "stable" test_crc_stable;
          quick "detects flips" test_crc_detects_flip;
          quick "feed is bitwise, MSB first" test_crc_feed_fields;
        ] );
      ( "bitstuff",
        [
          quick "five bits stuffed" test_stuff_simple;
          quick "run restart" test_stuff_restarts_run;
          quick "violation" test_unstuff_violation;
          QCheck_alcotest.to_alcotest prop_stuff_roundtrip;
          QCheck_alcotest.to_alcotest prop_stuffed_never_six;
        ] );
      ( "frame",
        [
          quick "construction" test_frame_construction;
          quick "remote" test_remote_frame;
          quick "wire round trip" test_frame_wire_roundtrip_basic;
          quick "wire length" test_frame_wire_length;
          quick "transmission time" test_frame_transmission_time;
          quick "corruption detected" test_frame_corrupt_detected;
          quick "truncated" test_frame_truncated;
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_length_counted;
          QCheck_alcotest.to_alcotest prop_wire_length_dense;
          quick "wire length allocates nothing"
            test_wire_length_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_wire_never_six;
          QCheck_alcotest.to_alcotest prop_crc_catches_bursts;
          quick "decode corpus" test_decode_corpus;
        ] );
      ( "errors",
        [
          quick "state machine" test_error_states;
          quick "decay" test_error_decay;
          quick "receive counter" test_rec_counter;
        ] );
      ("acceptance", [ quick "filters" test_acceptance ]);
      ( "controller",
        [
          quick "receive path" test_controller_receive;
          quick "line errors" test_controller_line_error;
        ] );
      ( "bus",
        [
          quick "broadcast delivery" test_bus_delivery;
          quick "receivers get the sent frame" test_bus_hands_over_sent_frame;
          quick "arbitration order" test_bus_arbitration_order;
          quick "timing" test_bus_timing;
          quick "corruption + retransmission" test_bus_corruption_retransmits;
          quick "bus-off refusal" test_bus_off_node_refuses;
          quick "gates" test_node_gates;
          quick "acceptance filters" test_node_acceptance_filters;
          quick "duplicate names" test_bus_duplicate_name;
          quick "detach" test_detach;
          quick "utilisation" test_bus_utilisation;
          quick "trace" test_trace_contents;
        ] );
      ( "gateway",
        [
          quick "whitelist forwarding" test_gateway_forwards_whitelisted;
          quick "bidirectional, no loops" test_gateway_bidirectional_no_loop;
          quick "validation + disconnect" test_gateway_validation_and_disconnect;
          quick "sheds at in-flight bound" test_gateway_sheds_at_capacity;
          quick "retry backoff then shed" test_gateway_retry_backoff_then_shed;
          quick "deadline sheds" test_gateway_deadline_sheds;
          quick "retry exhaustion sheds exactly once"
            test_gateway_retry_exhaustion_sheds_exactly_once;
          quick "backoff doubling respects deadline"
            test_gateway_backoff_doubling_respects_deadline;
          quick "per-direction counters" test_gateway_per_direction_counters;
        ] );
      ( "fault-points",
        [
          quick "detach drops queued frames" test_detach_drops_queued;
          quick "crash/restart cycle" test_crash_restart_cycle;
          quick "bus-off rejoin after recovery" test_busoff_rejoin_after_recovery;
          quick "confinement boundaries" test_error_confinement_boundaries;
          quick "corrupt_prob setter" test_bus_corrupt_prob_setter;
        ] );
      ( "candump",
        [
          quick "line format" test_candump_line_format;
          quick "parsing" test_candump_parse;
          quick "strict digit parsing" test_candump_parse_strict_digits;
          quick "export/import/replay" test_candump_export_import_replay;
          QCheck_alcotest.to_alcotest prop_candump_roundtrip;
        ] );
    ]
