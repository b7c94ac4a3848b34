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

let wire_length t = Wire.length (to_wire t)

let interframe_space = 3

let time_of_bits bits ~bitrate =
  float_of_int (bits + interframe_space) /. bitrate

let transmission_time t ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Frame.transmission_time: bitrate <= 0";
  time_of_bits (wire_length t) ~bitrate

let wire_time wire ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Frame.wire_time: bitrate <= 0";
  time_of_bits (Wire.length wire) ~bitrate

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
