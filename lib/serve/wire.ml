module Ir = Secpol_policy.Ir
module Batch = Secpol_policy.Batch

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* 16 MiB: far above any sane batch (a request is tens of bytes), far
   below anything that would let a garbage length prefix make the
   daemon allocate itself to death. *)
let max_payload = 16 * 1024 * 1024

let max_batch = 0xFFFF

type reload_status = Swapped | Refused_widened | Rejected

type interned = {
  modes : string array;
  subjects : string array;
  assets : string array;
  mode_ix : int array;
  subject_ix : int array;
  asset_ix : int array;
  ops : Ir.op array;
  msg_ids : int array;
}

type msg =
  | Decide_req of { id : int; reqs : interned }
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

let length r = Array.length r.ops

(* ------------------------------------------------------------------ *)
(* Interning a batch: each distinct name once                          *)
(* ------------------------------------------------------------------ *)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash = String.hash
end)

(* One column's name table, in first-use order.  A name is first looked
   for by physical equality among the table's first [phys_scan] names: a
   batch built from shared strings, as a client's usually is, finds
   every name there without hashing it.  Only a name not found that way
   is hashed and looked up, so a batch of fresh copies or of many
   distinct names costs one table lookup a name, never a scan of the
   whole table. *)
type column = {
  mutable names : string array;
  mutable size : int;
  index : int Names.t;
}

let phys_scan = 32

let new_column () =
  { names = Array.make 16 ""; size = 0; index = Names.create 16 }

let add_name col s =
  match Names.find_opt col.index s with
  | Some i -> i
  | None ->
      let i = col.size in
      if i = Array.length col.names then begin
        let names = Array.make (2 * i) "" in
        Array.blit col.names 0 names 0 i;
        col.names <- names
      end;
      col.names.(i) <- s;
      col.size <- i + 1;
      Names.add col.index s i;
      i

(* a loop over int refs, not a recursive scan or [Stdlib.min], whose
   polymorphic comparison alone costs more than the scan *)
let index_of col s =
  let names = col.names in
  let lim = if col.size < phys_scan then col.size else phys_scan in
  let i = ref 0 in
  while !i < lim && Array.unsafe_get names !i != s do
    incr i
  done;
  if !i < lim then !i else add_name col s

let table col = Array.sub col.names 0 col.size

let intern (reqs : Ir.request array) =
  let n = Array.length reqs in
  let modes = new_column ()
  and subjects = new_column ()
  and assets = new_column () in
  (* every column starts from a constant, as the decoder's do *)
  let mode_ix = Array.make n 0
  and subject_ix = Array.make n 0
  and asset_ix = Array.make n 0
  and ops = Array.make n Ir.Read
  and msg_ids = Array.make n Batch.no_msg_id in
  for i = 0 to n - 1 do
    let r = reqs.(i) in
    mode_ix.(i) <- index_of modes r.mode;
    subject_ix.(i) <- index_of subjects r.subject;
    asset_ix.(i) <- index_of assets r.asset;
    ops.(i) <- r.op;
    match r.msg_id with
    | None -> ()
    | Some m when m < 0 -> malformed "negative msg id %d" m
    | Some m -> msg_ids.(i) <- m
  done;
  {
    modes = table modes;
    subjects = table subjects;
    assets = table assets;
    mode_ix;
    subject_ix;
    asset_ix;
    ops;
    msg_ids;
  }

let fill r ~now ~subject_shard ~shard arena =
  let subject_hash = Array.map String.hash r.subjects in
  let asset_hash = Array.map String.hash r.assets in
  for i = 0 to length r - 1 do
    let s = r.subject_ix.(i) in
    if subject_shard.(s) = shard then begin
      let a = r.asset_ix.(i) in
      Batch.push_hashed arena ~now ~mode:r.modes.(r.mode_ix.(i))
        ~subject:r.subjects.(s) ~subject_hash:subject_hash.(s)
        ~asset:r.assets.(a) ~asset_hash:asset_hash.(a) r.ops.(i)
        ~msg_id:r.msg_ids.(i)
    end
  done

(* ------------------------------------------------------------------ *)
(* Encoding (all integers little-endian)                               *)
(* ------------------------------------------------------------------ *)

(* A message is written into bytes of exactly its encoded size, behind
   [prefix] spare bytes (a frame's length prefix), so nothing grows or
   is copied on the way to the socket. *)
type writer = { buf : bytes; mutable at : int }

let put_u8 w v =
  Bytes.set_uint8 w.buf w.at (v land 0xFF);
  w.at <- w.at + 1

let put_u16 w v =
  if v < 0 || v > 0xFFFF then malformed "u16 out of range: %d" v;
  Bytes.set_uint16_le w.buf w.at v;
  w.at <- w.at + 2

let put_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then malformed "u32 out of range: %d" v;
  Bytes.set_int32_le w.buf w.at (Int32.of_int v);
  w.at <- w.at + 4

let put_string w s =
  Bytes.blit_string s 0 w.buf w.at (String.length s);
  w.at <- w.at + String.length s

let put_str16 w s =
  put_u16 w (String.length s);
  put_string w s

let put_str32 w s =
  put_u32 w (String.length s);
  put_string w s

let op_tag : Ir.op -> int = function Read -> 0 | Write -> 1

let status_tag = function Swapped -> 0 | Refused_widened -> 1 | Rejected -> 2

(* A decide's name table: a u16 count, then each name as a str16. *)
let put_table w names =
  put_u16 w (Array.length names);
  Array.iter (put_str16 w) names

(* The per-request columns are written in plain loops, one field at a
   time: a u16 index into a table of [size] names each, ... *)
let put_indices w ix size =
  let at = w.at in
  for i = 0 to Array.length ix - 1 do
    let v = ix.(i) in
    if v < 0 || v >= size then
      malformed "index %d outside a table of %d names" v size;
    Bytes.set_uint16_le w.buf (at + (2 * i)) v
  done;
  w.at <- at + (2 * Array.length ix)

(* ... an op byte each ... *)
let put_ops w ops =
  let at = w.at in
  for i = 0 to Array.length ops - 1 do
    Bytes.set_uint8 w.buf (at + i) (op_tag ops.(i))
  done;
  w.at <- at + Array.length ops

(* ... and an i32 msg id each, -1 for none. *)
let put_msg_ids w ids =
  let at = w.at in
  for i = 0 to Array.length ids - 1 do
    let m = ids.(i) in
    if m < Batch.no_msg_id || m > 0x7FFFFFFF then
      malformed "msg id %d out of range" m;
    Bytes.set_int32_le w.buf (at + (4 * i)) (Int32.of_int m)
  done;
  w.at <- at + (4 * Array.length ids)

let table_bytes names =
  Array.fold_left (fun acc s -> acc + 2 + String.length s) 2 names

(* the bytes a message encodes to *)
let size = function
  | Decide_req { reqs = r; _ } ->
      7 + table_bytes r.modes + table_bytes r.subjects + table_bytes r.assets
      + (11 * length r)
  | Decide_resp { allows; _ } -> 8 + ((Array.length allows + 7) / 8)
  | Stats_req _ -> 5
  | Stats_resp { body = s; _ } | Error_resp { message = s; _ } ->
      9 + String.length s
  | Reload_req { source; _ } -> 10 + String.length source
  | Reload_resp { detail; _ } -> 26 + String.length detail

(* Payload layout: a type byte, then the body.  A decide request names
   each distinct mode, subject and asset once: three name tables, then
   per request a u16 index into each, then the op and msg-id columns.
   Its type is 8, not 1, so a payload in the layout that sent every
   request's names in full is refused as an unknown type, never read as
   name tables.  Decide responses pack one decision per bit, LSB
   first. *)
let encode_into w msg =
  match msg with
  | Decide_req { id; reqs = r } ->
      let n = length r in
      if n > max_batch then malformed "batch of %d exceeds %d" n max_batch;
      if
        Array.length r.mode_ix <> n
        || Array.length r.subject_ix <> n
        || Array.length r.asset_ix <> n
        || Array.length r.msg_ids <> n
      then malformed "decide columns of unequal length";
      put_u8 w 8;
      put_u32 w id;
      put_u16 w n;
      put_table w r.modes;
      put_table w r.subjects;
      put_table w r.assets;
      put_indices w r.mode_ix (Array.length r.modes);
      put_indices w r.subject_ix (Array.length r.subjects);
      put_indices w r.asset_ix (Array.length r.assets);
      put_ops w r.ops;
      put_msg_ids w r.msg_ids
  | Decide_resp { id; degraded; shed; allows } ->
      put_u8 w 2;
      put_u32 w id;
      put_u8 w ((if degraded then 1 else 0) lor if shed then 2 else 0);
      let n = Array.length allows in
      put_u16 w n;
      let byte = ref 0 in
      for i = 0 to n - 1 do
        if allows.(i) then byte := !byte lor (1 lsl (i land 7));
        if i land 7 = 7 || i = n - 1 then begin
          put_u8 w !byte;
          byte := 0
        end
      done
  | Stats_req { id } ->
      put_u8 w 3;
      put_u32 w id
  | Stats_resp { id; body } ->
      put_u8 w 4;
      put_u32 w id;
      put_str32 w body
  | Reload_req { id; allow_widen; source } ->
      put_u8 w 5;
      put_u32 w id;
      put_u8 w (if allow_widen then 1 else 0);
      put_str32 w source
  | Reload_resp { id; status; widened; tightened; changed; epoch; detail } ->
      put_u8 w 6;
      put_u32 w id;
      put_u8 w (status_tag status);
      put_u32 w widened;
      put_u32 w tightened;
      put_u32 w changed;
      put_u32 w epoch;
      put_str32 w detail
  | Error_resp { id; message } ->
      put_u8 w 7;
      put_u32 w id;
      put_str32 w message

let encode ~prefix msg =
  let w = { buf = Bytes.create (prefix + size msg); at = prefix } in
  encode_into w msg;
  assert (w.at = Bytes.length w.buf);
  w.buf

let encode_payload msg = Bytes.unsafe_to_string (encode ~prefix:0 msg)

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

let get_status c =
  match get_u8 c with
  | 0 -> Swapped
  | 1 -> Refused_widened
  | 2 -> Rejected
  | t -> malformed "unknown reload status %d" t

(* Every array below starts from a constant and is filled in place.
   [Array.init n f] would seed it with [f 0] instead: above 256 elements
   ([Max_young_wosize]) the array is allocated in the major heap, and
   [caml_make_vect] forces a minor collection first whenever that seed is
   a fresh minor-heap value, as a decoded string is.  A constant never
   lives in the minor heap.  Only the name tables allocate per entry, so
   a decide allocates per distinct name, not per request. *)

(* A name table: a u16 count, then that many str16 names.  Each name
   takes at least its two length bytes, so a count the rest of the
   payload cannot hold is refused before the table is allocated. *)
let get_table c =
  let k = get_u16 c in
  need c (2 * k);
  let names = Array.make k "" in
  for i = 0 to k - 1 do
    names.(i) <- get_str16 c
  done;
  names

(* [n] u16 indices into a table of [size] names *)
let get_indices c n size =
  need c (2 * n);
  let ix = Array.make n 0 in
  let p = c.pos in
  for i = 0 to n - 1 do
    let v = String.get_uint16_le c.payload (p + (2 * i)) in
    if v >= size then malformed "index %d outside a table of %d names" v size;
    ix.(i) <- v
  done;
  c.pos <- p + (2 * n);
  ix

let get_ops c n =
  need c n;
  let ops = Array.make n Ir.Read in
  let p = c.pos in
  for i = 0 to n - 1 do
    match String.get_uint8 c.payload (p + i) with
    | 0 -> ()
    | 1 -> ops.(i) <- Ir.Write
    | t -> malformed "unknown op tag %d" t
  done;
  c.pos <- p + n;
  ops

(* i32 msg ids: -1 ({!Batch.no_msg_id}) for none, otherwise non-negative *)
let get_msg_ids c n =
  need c (4 * n);
  let ids = Array.make n Batch.no_msg_id in
  let p = c.pos in
  for i = 0 to n - 1 do
    let m = Int32.to_int (String.get_int32_le c.payload (p + (4 * i))) in
    if m < Batch.no_msg_id then malformed "negative msg id %d" m;
    ids.(i) <- m
  done;
  c.pos <- p + (4 * n);
  ids

let decode_payload payload =
  let c = { payload; pos = 0 } in
  let msg =
    match get_u8 c with
    | 8 ->
        let id = get_u32 c in
        let n = get_u16 c in
        let modes = get_table c in
        let subjects = get_table c in
        let assets = get_table c in
        let mode_ix = get_indices c n (Array.length modes) in
        let subject_ix = get_indices c n (Array.length subjects) in
        let asset_ix = get_indices c n (Array.length assets) in
        let ops = get_ops c n in
        let msg_ids = get_msg_ids c n in
        Decide_req
          {
            id;
            reqs =
              {
                modes;
                subjects;
                assets;
                mode_ix;
                subject_ix;
                asset_ix;
                ops;
                msg_ids;
              };
          }
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
  let frame = encode ~prefix:4 msg in
  let len = Bytes.length frame in
  Bytes.set_int32_le frame 0 (Int32.of_int (len - 4));
  really_write fd frame 0 len

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
