type t = { id : Identifier.t; rtr : bool; dlc : int; payload : string }

let data id payload =
  if String.length payload > 8 then
    invalid_arg "Frame.data: payload exceeds 8 bytes";
  { id; rtr = false; dlc = String.length payload; payload }

let remote id ~dlc =
  if dlc < 0 || dlc > 8 then invalid_arg "Frame.remote: dlc outside 0..8";
  { id; rtr = true; dlc; payload = "" }

let data_ext id payload = data (Identifier.extended id) payload

let data_std id payload = data (Identifier.standard id) payload

type line_error = Stuff_violation | Crc_mismatch | Form_error

(* CRC delimiter, ACK slot (transmitted recessive), ACK delimiter and seven
   end-of-frame bits; not subject to stuffing. *)
let trailer_bits = 10

(* The longest classic frame: an extended data frame with 8 bytes has 118
   bits from SOF through the CRC, at most 29 stuff bits among them, then
   the trailer. *)
let max_wire_bits = 118 + 29 + trailer_bits

(* One pass over the fields, as ints: each field feeds the CRC and the
   stuffing writer together.  Fields are transmitted MSB first; a 1 bit is
   recessive. *)
let to_wire t =
  let w = Wire.writer max_wire_bits in
  let crc = ref 0 in
  let field value bits =
    crc := Crc.feed !crc value ~bits;
    Wire.stuffed w value ~bits
  in
  (* SOF *)
  field 0 1;
  let rtr = Bool.to_int t.rtr in
  (match t.id with
  | Identifier.Standard id ->
      (* ID[10..0]  RTR  IDE=0  r0=0 *)
      field id 11;
      field rtr 1;
      field 0 2
  | Identifier.Extended id ->
      (* ID[28..18]  SRR=1  IDE=1  ID[17..0]  RTR  r1=0  r0=0 *)
      field (id lsr 18) 11;
      field 0b11 2;
      field (id land 0x3FFFF) 18;
      field rtr 1;
      field 0 2);
  field t.dlc 4;
  for i = 0 to String.length t.payload - 1 do
    field (Char.code t.payload.[i]) 8
  done;
  Wire.stuffed w !crc ~bits:Crc.width;
  Wire.raw w ((1 lsl trailer_bits) - 1) ~bits:trailer_bits;
  Wire.contents w

(* [to_wire]'s pass again, counting the bits it would write instead of
   writing them.  The transmitter's stuffing run is a state [(run lsl 1)
   lor level] with [run] 0..4: the length of the run of equal bits the
   stream ends in, and their level.  Before SOF the run is 0, so either
   level starts a run of 1, as [Wire]'s writer does. *)

(* the state after driving bit [b], and the stuff bits inserted, 0 or 1 *)
let drive s b =
  let run = if b = s land 1 then (s lsr 1) + 1 else 1 in
  if run = 5 then
    (* the stuff bit, of the opposite level, starts the next run *)
    ((1 lsl 1) lor (1 - b), 1)
  else ((run lsl 1) lor b, 0)

(* A chunk of [k] bits, 1 <= k <= 8, with value [v] is [(1 lsl k) lor v],
   below 512.  [chunks] holds at [(s lsl 9) lor chunk] the state after
   driving the chunk's bits MSB first from state [s], plus 16 times the
   stuff bits inserted (at most two in eight bits). *)
let chunks =
  let t = Bytes.create (10 lsl 9) in
  for s = 0 to 9 do
    for k = 1 to 8 do
      for v = 0 to (1 lsl k) - 1 do
        let s' = ref s and stuffed = ref 0 in
        for i = k - 1 downto 0 do
          let s'', n = drive !s' ((v lsr i) land 1) in
          s' := s'';
          stuffed := !stuffed + n
        done;
        Bytes.set t ((s lsl 9) lor (1 lsl k) lor v)
          (Char.chr (!s' lor (!stuffed lsl 4)))
      done
    done
  done;
  t

(* The whole count is one int, so that nothing is allocated: the CRC in
   bits 0-14, the run state in bits 15-18, and from bit 19 the bits driven
   so far, stuff bits included. *)
let crc_of st = st land 0x7FFF

let pos_of st = st lsr 19

let drive_chunk st v k =
  let e =
    Char.code
      (Bytes.get chunks ((((st lsr 15) land 15) lsl 9) lor (1 lsl k) lor v))
  in
  crc_of st lor ((e land 15) lsl 15) lor ((pos_of st + k + (e lsr 4)) lsl 19)

(* drives the low [bits] bits of [value], eight at a time from the top *)
let rec stuff st value bits =
  if bits <= 8 then drive_chunk st (value land ((1 lsl bits) - 1)) bits
  else
    stuff
      (drive_chunk st ((value lsr (bits - 8)) land 0xFF) 8)
      value (bits - 8)

(* one field fed to the CRC and driven, as in [to_wire] *)
let count_field st value bits =
  let st = stuff st value bits in
  (st land lnot 0x7FFF) lor Crc.feed (crc_of st) value ~bits

let rec count_payload st payload i =
  if i = String.length payload then st
  else count_payload (count_field st (Char.code payload.[i]) 8) payload (i + 1)

let wire_length t =
  let st = count_field 0 0 1 in
  let rtr = Bool.to_int t.rtr in
  let st =
    match t.id with
    | Identifier.Standard id ->
        let st = count_field st id 11 in
        let st = count_field st rtr 1 in
        count_field st 0 2
    | Identifier.Extended id ->
        let st = count_field st (id lsr 18) 11 in
        let st = count_field st 0b11 2 in
        let st = count_field st (id land 0x3FFFF) 18 in
        let st = count_field st rtr 1 in
        count_field st 0 2
  in
  let st = count_payload (count_field st t.dlc 4) t.payload 0 in
  pos_of (stuff st (crc_of st) Crc.width) + trailer_bits

let interframe_space = 3

let transmission_time t ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Frame.transmission_time: bitrate <= 0";
  float_of_int (wire_length t + interframe_space) /. bitrate

(* A form error in the unstuffed bits: raised by the parser, caught by
   [of_wire]. *)
exception Form of string

(* A read position in the unstuffed bits.  Every field read folds its
   bits into [crc], so once the data field is read [crc] is the CRC of
   the SOF-to-data bits exactly as they arrived. *)
type cursor = { bits : Wire.t; mutable pos : int; mutable crc : int }

(* The next [n] bits as an unsigned integer, MSB first. *)
let field c name n =
  if c.pos + n > Wire.length c.bits then
    raise (Form ("truncated frame: missing " ^ name));
  let v = Wire.read c.bits ~pos:c.pos ~bits:n in
  c.pos <- c.pos + n;
  c.crc <- Crc.feed c.crc v ~bits:n;
  v

let parse bits =
  let c = { bits; pos = 0; crc = 0 } in
  if field c "SOF" 1 = 1 then raise (Form "SOF must be dominant");
  let id_base = field c "base id" 11 in
  let flag1 = field c "RTR/SRR" 1 in
  let extended = field c "IDE" 1 = 1 in
  let id, rtr =
    if extended then begin
      (* flag1 is SRR, which must be recessive *)
      if flag1 = 0 then raise (Form "SRR must be recessive");
      let id_ext = field c "extended id" 18 in
      let rtr = field c "RTR" 1 = 1 in
      (Identifier.extended ((id_base lsl 18) lor id_ext), rtr)
    end
    else (Identifier.standard id_base, flag1 = 1)
  in
  if field c "reserved" (if extended then 2 else 1) <> 0 then
    raise (Form "reserved bits must be dominant");
  let dlc = field c "DLC" 4 in
  if dlc > 8 then raise (Form (Printf.sprintf "DLC %d out of range" dlc));
  let payload = Bytes.create (if rtr then 0 else dlc) in
  for i = 0 to Bytes.length payload - 1 do
    Bytes.set payload i (Char.chr (field c "data" 8))
  done;
  let body_crc = c.crc in
  let crc = field c "CRC" Crc.width in
  if c.pos <> Wire.length bits then raise (Form "trailing bits after CRC");
  if body_crc <> crc then Error (Crc_mismatch, "CRC mismatch")
  else Ok { id; rtr; dlc; payload = Bytes.unsafe_to_string payload }

let of_wire wire =
  let n = Wire.length wire in
  if n < trailer_bits then Error (Form_error, "frame too short")
  else if
    Wire.read wire ~pos:(n - trailer_bits) ~bits:trailer_bits
    <> (1 lsl trailer_bits) - 1
  then Error (Form_error, "malformed trailer (expected recessive bits)")
  else
    match Wire.unstuff wire ~len:(n - trailer_bits) with
    | Error msg -> Error (Stuff_violation, msg)
    | Ok bits -> ( try parse bits with Form msg -> Error (Form_error, msg))

let payload_bytes t = List.init (String.length t.payload) (fun i -> Char.code t.payload.[i])

let equal a b = a = b

let pp ppf t =
  if t.rtr then Format.fprintf ppf "%a remote dlc=%d" Identifier.pp t.id t.dlc
  else begin
    Format.fprintf ppf "%a [%d]" Identifier.pp t.id t.dlc;
    String.iter (fun c -> Format.fprintf ppf " %02x" (Char.code c)) t.payload
  end
