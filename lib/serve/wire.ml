module Ir = Secpol_policy.Ir

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* 16 MiB: far above any sane batch (a request is tens of bytes), far
   below anything that would let a garbage length prefix make the
   daemon allocate itself to death. *)
let max_payload = 16 * 1024 * 1024

let max_batch = 0xFFFF

type reload_status = Swapped | Refused_widened | Rejected

type msg =
  | Decide_req of { id : int; reqs : Ir.request array }
  | Decide_resp of {
      id : int;
      degraded : bool; (* fail-safe denies: a shard stalled or timed out *)
      shed : bool; (* admission shed: the shard ring stayed full *)
      allows : bool array;
    }
  | Stats_req of { id : int }
  | Stats_resp of { id : int; body : string }
  | Reload_req of { id : int; allow_widen : bool; source : string }
  | Reload_resp of {
      id : int;
      status : reload_status;
      widened : int;
      tightened : int;
      changed : int;
      epoch : int;
      detail : string;
    }
  | Error_resp of { id : int; message : string }

(* ------------------------------------------------------------------ *)
(* Encoding (all integers little-endian)                               *)
(* ------------------------------------------------------------------ *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xFF)

let add_u16 b v =
  if v < 0 || v > 0xFFFF then malformed "u16 out of range: %d" v;
  Buffer.add_uint16_le b v

let add_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then malformed "u32 out of range: %d" v;
  Buffer.add_int32_le b (Int32.of_int v)

let add_i32 b v = Buffer.add_int32_le b (Int32.of_int v)

let add_str16 b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let op_tag : Ir.op -> int = function Read -> 0 | Write -> 1

let status_tag = function Swapped -> 0 | Refused_widened -> 1 | Rejected -> 2

(* Payload layout: a type byte, then the body.  Decide requests are
   columnar — all modes, then all subjects, then all assets, then ops,
   then msg ids — mirroring the struct-of-arrays batch arena they are
   decoded into.  Decide responses pack one decision per bit, LSB
   first. *)
let encode_payload msg =
  let b = Buffer.create 64 in
  (match msg with
  | Decide_req { id; reqs } ->
      let n = Array.length reqs in
      if n > max_batch then malformed "batch of %d exceeds %d" n max_batch;
      add_u8 b 1;
      add_u32 b id;
      add_u16 b n;
      Array.iter (fun (r : Ir.request) -> add_str16 b r.mode) reqs;
      Array.iter (fun (r : Ir.request) -> add_str16 b r.subject) reqs;
      Array.iter (fun (r : Ir.request) -> add_str16 b r.asset) reqs;
      Array.iter (fun (r : Ir.request) -> add_u8 b (op_tag r.op)) reqs;
      Array.iter
        (fun (r : Ir.request) ->
          match r.msg_id with
          | None -> add_i32 b (-1)
          | Some m ->
              if m < 0 then malformed "negative msg id %d" m;
              add_i32 b m)
        reqs
  | Decide_resp { id; degraded; shed; allows } ->
      add_u8 b 2;
      add_u32 b id;
      add_u8 b ((if degraded then 1 else 0) lor if shed then 2 else 0);
      let n = Array.length allows in
      add_u16 b n;
      let byte = ref 0 in
      for i = 0 to n - 1 do
        if allows.(i) then byte := !byte lor (1 lsl (i land 7));
        if i land 7 = 7 || i = n - 1 then begin
          add_u8 b !byte;
          byte := 0
        end
      done
  | Stats_req { id } ->
      add_u8 b 3;
      add_u32 b id
  | Stats_resp { id; body } ->
      add_u8 b 4;
      add_u32 b id;
      add_str32 b body
  | Reload_req { id; allow_widen; source } ->
      add_u8 b 5;
      add_u32 b id;
      add_u8 b (if allow_widen then 1 else 0);
      add_str32 b source
  | Reload_resp { id; status; widened; tightened; changed; epoch; detail } ->
      add_u8 b 6;
      add_u32 b id;
      add_u8 b (status_tag status);
      add_u32 b widened;
      add_u32 b tightened;
      add_u32 b changed;
      add_u32 b epoch;
      add_str32 b detail
  | Error_resp { id; message } ->
      add_u8 b 7;
      add_u32 b id;
      add_str32 b message);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type cursor = { payload : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.payload then
    malformed "truncated payload: need %d at %d of %d" n c.pos
      (String.length c.payload)

let get_u8 c =
  need c 1;
  let v = Char.code c.payload.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = String.get_uint16_le c.payload c.pos in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.payload c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.payload c.pos) in
  c.pos <- c.pos + 4;
  v

let get_str16 c =
  let n = get_u16 c in
  need c n;
  let s = String.sub c.payload c.pos n in
  c.pos <- c.pos + n;
  s

let get_str32 c =
  let n = get_u32 c in
  if n > max_payload then malformed "string length %d exceeds frame limit" n;
  need c n;
  let s = String.sub c.payload c.pos n in
  c.pos <- c.pos + n;
  s

let get_op c =
  match get_u8 c with
  | 0 -> Ir.Read
  | 1 -> Ir.Write
  | t -> malformed "unknown op tag %d" t

let get_status c =
  match get_u8 c with
  | 0 -> Swapped
  | 1 -> Refused_widened
  | 2 -> Rejected
  | t -> malformed "unknown reload status %d" t

let get_msg_id c =
  match get_i32 c with
  | -1 -> None
  | m when m >= 0 -> Some m
  | m -> malformed "negative msg id %d" m

(* [n] values read in order, in an array that starts out holding [seed].
   [Array.init n f] would seed it with [f 0] instead: above 256 elements
   ([Max_young_wosize]) the array is allocated in the major heap, and
   [caml_make_vect] forces a minor collection first whenever that seed is
   a fresh minor-heap value, as a decoded string or [Some m] is.  So every
   column starts from a constant, which never lives in the minor heap. *)
let column c n seed read =
  let a = Array.make n seed in
  for i = 0 to n - 1 do
    a.(i) <- read c
  done;
  a

(* the seed of a decoded request array: a constant, like a column's *)
let no_request =
  { Ir.mode = ""; subject = ""; asset = ""; op = Ir.Read; msg_id = None }

let decode_payload payload =
  let c = { payload; pos = 0 } in
  let msg =
    match get_u8 c with
    | 1 ->
        let id = get_u32 c in
        let n = get_u16 c in
        let modes = column c n "" get_str16 in
        let subjects = column c n "" get_str16 in
        let assets = column c n "" get_str16 in
        let ops = column c n Ir.Read get_op in
        let msg_ids = column c n None get_msg_id in
        let reqs = Array.make n no_request in
        for i = 0 to n - 1 do
          reqs.(i) <-
            {
              Ir.mode = modes.(i);
              subject = subjects.(i);
              asset = assets.(i);
              op = ops.(i);
              msg_id = msg_ids.(i);
            }
        done;
        Decide_req { id; reqs }
    | 2 ->
        let id = get_u32 c in
        let flags = get_u8 c in
        let n = get_u16 c in
        let allows = Array.make n false in
        let byte = ref 0 in
        for i = 0 to n - 1 do
          if i land 7 = 0 then byte := get_u8 c;
          allows.(i) <- !byte land (1 lsl (i land 7)) <> 0
        done;
        Decide_resp
          { id; degraded = flags land 1 <> 0; shed = flags land 2 <> 0; allows }
    | 3 -> Stats_req { id = get_u32 c }
    | 4 ->
        let id = get_u32 c in
        Stats_resp { id; body = get_str32 c }
    | 5 ->
        let id = get_u32 c in
        let allow_widen = get_u8 c <> 0 in
        Reload_req { id; allow_widen; source = get_str32 c }
    | 6 ->
        let id = get_u32 c in
        let status = get_status c in
        let widened = get_u32 c in
        let tightened = get_u32 c in
        let changed = get_u32 c in
        let epoch = get_u32 c in
        Reload_resp
          { id; status; widened; tightened; changed; epoch; detail = get_str32 c }
    | 7 ->
        let id = get_u32 c in
        Error_resp { id; message = get_str32 c }
    | t -> malformed "unknown message type %d" t
  in
  if c.pos <> String.length payload then
    malformed "trailing garbage: %d bytes after message"
      (String.length payload - c.pos);
  msg

(* ------------------------------------------------------------------ *)
(* Framing over a file descriptor                                      *)
(* ------------------------------------------------------------------ *)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.read fd buf off len in
      if n = 0 then raise End_of_file;
      go (off + n) (len - n)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = Unix.write fd buf off len in
      go (off + n) (len - n)
    end
  in
  go off len

let input_msg fd =
  let header = Bytes.create 4 in
  really_read fd header 0 4;
  let len = Int32.to_int (Bytes.get_int32_le header 0) land 0xFFFFFFFF in
  if len > max_payload then malformed "frame of %d exceeds %d" len max_payload;
  let payload = Bytes.create len in
  really_read fd payload 0 len;
  decode_payload (Bytes.unsafe_to_string payload)

let output_msg fd msg =
  let payload = encode_payload msg in
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  really_write fd frame 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* Equality / debug                                                    *)
(* ------------------------------------------------------------------ *)

let equal (a : msg) (b : msg) = a = b

let type_name = function
  | Decide_req _ -> "decide_req"
  | Decide_resp _ -> "decide_resp"
  | Stats_req _ -> "stats_req"
  | Stats_resp _ -> "stats_resp"
  | Reload_req _ -> "reload_req"
  | Reload_resp _ -> "reload_resp"
  | Error_resp _ -> "error_resp"
