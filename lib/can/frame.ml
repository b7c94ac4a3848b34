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

(* Bit helpers: [true] is the recessive level (logical 1), [false]
   dominant (logical 0).  Fields are transmitted MSB first. *)
let int_bits value width =
  List.init width (fun i -> value land (1 lsl (width - 1 - i)) <> 0)

(* Unstuffed body: SOF through the data field. *)
let body_bits t =
  let sof = [ false ] in
  let arbitration_and_control =
    match t.id with
    | Identifier.Standard id ->
        (* ID[10..0]  RTR  IDE=0  r0=0 *)
        int_bits id 11 @ [ t.rtr; false; false ]
    | Identifier.Extended id ->
        (* ID[28..18]  SRR=1  IDE=1  ID[17..0]  RTR  r1=0  r0=0 *)
        int_bits (id lsr 18) 11
        @ [ true; true ]
        @ int_bits (id land 0x3FFFF) 18
        @ [ t.rtr; false; false ]
  in
  let dlc = int_bits t.dlc 4 in
  let data_bits =
    List.concat_map
      (fun i -> int_bits (Char.code t.payload.[i]) 8)
      (List.init (String.length t.payload) Fun.id)
  in
  sof @ arbitration_and_control @ dlc @ data_bits

(* CRC delimiter, ACK slot (transmitted recessive), ACK delimiter and seven
   end-of-frame bits; not subject to stuffing. *)
let trailer = List.init 10 (fun _ -> true)

let to_wire t =
  let body = body_bits t in
  let crc = Crc.compute body in
  Bitstuff.stuff (body @ Crc.to_bits crc) @ trailer

let wire_length t =
  let body = body_bits t in
  let crc = Crc.compute body in
  Bitstuff.stuffed_length (body @ Crc.to_bits crc) + List.length trailer

let interframe_space = 3

let time_of_bits bits ~bitrate =
  float_of_int (bits + interframe_space) /. bitrate

let transmission_time t ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Frame.transmission_time: bitrate <= 0";
  time_of_bits (wire_length t) ~bitrate

let wire_time wire ~bitrate =
  if bitrate <= 0.0 then invalid_arg "Frame.wire_time: bitrate <= 0";
  time_of_bits (List.length wire) ~bitrate

let take n l =
  let rec loop n acc = function
    | rest when n = 0 -> Some (List.rev acc, rest)
    | [] -> None
    | x :: rest -> loop (n - 1) (x :: acc) rest
  in
  loop n [] l

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* A read position in the unstuffed bits.  Every field read folds its
   bits into [crc], so once the data field is read [crc] is the CRC of
   the SOF-to-data bits exactly as they arrived. *)
type cursor = { mutable rest : bool list; mutable crc : int }

(* The next [n] bits as an unsigned integer, MSB first. *)
let field c name n =
  let rec loop acc n =
    if n = 0 then Ok acc
    else
      match c.rest with
      | [] -> Error (Printf.sprintf "truncated frame: missing %s" name)
      | b :: rest ->
          c.rest <- rest;
          c.crc <- Crc.step c.crc b;
          loop ((acc lsl 1) lor Bool.to_int b) (n - 1)
  in
  loop 0 n

let of_wire wire =
  let n = List.length wire in
  if n < 10 then Error "frame too short"
  else begin
    let stuffed, tail =
      match take (n - 10) wire with
      | Some (s, t) -> (s, t)
      | None -> assert false
    in
    if List.exists not tail then Error "malformed trailer (expected recessive bits)"
    else
      let* bits = Bitstuff.unstuff stuffed in
      let c = { rest = bits; crc = 0 } in
      let* sof = field c "SOF" 1 in
      if sof = 1 then Error "SOF must be dominant"
      else
        let* id_base = field c "base id" 11 in
        let* flag1 = field c "RTR/SRR" 1 in
        let* ide = field c "IDE" 1 in
        let parse_tail ~id ~rtr reserved_count =
          let* reserved = field c "reserved" reserved_count in
          if reserved <> 0 then Error "reserved bits must be dominant"
          else
            let* dlc = field c "DLC" 4 in
            if dlc > 8 then Error (Printf.sprintf "DLC %d out of range" dlc)
            else
              let data_len = if rtr then 0 else dlc in
              let payload = Bytes.create data_len in
              let rec read_data i =
                if i = data_len then Ok ()
                else
                  let* byte = field c "data" 8 in
                  Bytes.set payload i (Char.chr byte);
                  read_data (i + 1)
              in
              let* () = read_data 0 in
              let body_crc = c.crc in
              let* crc = field c "CRC" Crc.width in
              if c.rest <> [] then Error "trailing bits after CRC"
              else if body_crc <> crc then Error "CRC mismatch"
              else
                Ok { id; rtr; dlc; payload = Bytes.unsafe_to_string payload }
        in
        if ide = 1 then
          (* extended: flag1 is SRR (must be recessive) *)
          if flag1 = 0 then Error "SRR must be recessive"
          else
            let* id_ext = field c "extended id" 18 in
            let* rtr = field c "RTR" 1 in
            let id = Identifier.extended ((id_base lsl 18) lor id_ext) in
            parse_tail ~id ~rtr:(rtr = 1) 2
        else
          let id = Identifier.standard id_base in
          parse_tail ~id ~rtr:(flag1 = 1) 1
  end

let payload_bytes t = List.init (String.length t.payload) (fun i -> Char.code t.payload.[i])

let equal a b = a = b

let pp ppf t =
  if t.rtr then Format.fprintf ppf "%a remote dlc=%d" Identifier.pp t.id t.dlc
  else begin
    Format.fprintf ppf "%a [%d]" Identifier.pp t.id t.dlc;
    String.iter (fun c -> Format.fprintf ppf " %02x" (Char.code c)) t.payload
  end
