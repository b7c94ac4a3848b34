module Ir = Secpol_policy.Ir

type t = { fd : Unix.file_descr; mutable next_id : int }

exception Protocol of string

(* The daemon unlinks-then-binds its socket at startup, so a client
   racing the boot sees ENOENT/ECONNREFUSED for a moment; retrying over
   a short window makes "start daemon; connect" scriptable without
   sleeps. *)
let rec connect_retrying ~attempts ~backoff_s addr =
  let fd =
    Unix.socket
      (match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  match Unix.connect fd addr with
  | () -> fd
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
    when attempts > 1 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.sleepf backoff_s with Unix.Unix_error _ -> ());
      connect_retrying ~attempts:(attempts - 1) ~backoff_s addr
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect ?(attempts = 50) ?(backoff_s = 0.05) path =
  { fd = connect_retrying ~attempts ~backoff_s (Unix.ADDR_UNIX path); next_id = 1 }

let connect_tcp ?(attempts = 50) ?(backoff_s = 0.05) ~port host =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  { fd = connect_retrying ~attempts ~backoff_s addr; next_id = 1 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let roundtrip t msg =
  Wire.output_msg t.fd msg;
  Wire.input_msg t.fd

let fresh_id t =
  let id = t.next_id in
  t.next_id <- (id + 1) land 0xFFFFFFFF;
  id

type decision_batch = {
  degraded : bool;
  shed : bool;
  allows : bool array;
}

let decide t reqs =
  let id = fresh_id t in
  match roundtrip t (Wire.Decide_req { id; reqs = Wire.intern reqs }) with
  | Wire.Decide_resp { id = rid; degraded; shed; allows } when rid = id ->
      if Array.length allows <> Array.length reqs then
        raise (Protocol "decide: answer count mismatch");
      { degraded; shed; allows }
  | Wire.Error_resp { message; _ } -> raise (Protocol message)
  | m -> raise (Protocol ("decide: unexpected " ^ Wire.type_name m))

let decide_one t req =
  let b = decide t [| req |] in
  b.allows.(0)

let stats t =
  let id = fresh_id t in
  match roundtrip t (Wire.Stats_req { id }) with
  | Wire.Stats_resp { id = rid; body } when rid = id -> body
  | Wire.Error_resp { message; _ } -> raise (Protocol message)
  | m -> raise (Protocol ("stats: unexpected " ^ Wire.type_name m))

type reload_outcome = {
  status : Wire.reload_status;
  widened : int;
  tightened : int;
  changed : int;
  epoch : int;
  detail : string;
}

let reload t ?(allow_widen = false) source =
  let id = fresh_id t in
  match roundtrip t (Wire.Reload_req { id; allow_widen; source }) with
  | Wire.Reload_resp { id = rid; status; widened; tightened; changed; epoch; detail }
    when rid = id ->
      { status; widened; tightened; changed; epoch; detail }
  | Wire.Error_resp { message; _ } -> raise (Protocol message)
  | m -> raise (Protocol ("reload: unexpected " ^ Wire.type_name m))
