type t = {
  mutable len : int;
  mutable subjects : string array;
  mutable assets : string array;
  mutable modes : string array;
  mutable ops : int array;
  mutable msg_ids : int array;
  mutable nows : float array;
  mutable exact_hash : int array;
  mutable wild_hash : int array;
  (* mode-interning memo for Table's row decisions: valid only while
     [memo_stamp] matches the deciding table's compile stamp, so a batch
     replayed against a different (or hot-swapped) table can never reuse a
     stale mode id *)
  mutable memo_stamp : int;
  mutable memo_mode : string;
  mutable memo_id : int;
}

let no_msg_id = -1

(* a string no caller can be physically equal to, so the memo never hits
   before its first fill *)
let memo_unset = String.init 1 (fun _ -> '\255')

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  {
    len = 0;
    subjects = Array.make capacity "";
    assets = Array.make capacity "";
    modes = Array.make capacity "";
    ops = Array.make capacity 0;
    msg_ids = Array.make capacity no_msg_id;
    nows = Array.make capacity 0.0;
    exact_hash = Array.make capacity 0;
    wild_hash = Array.make capacity 0;
    memo_stamp = -1;
    memo_mode = memo_unset;
    memo_id = 0;
  }

let length t = t.len

let capacity t = Array.length t.ops

let clear t = t.len <- 0

let grow t =
  let cap = Array.length t.ops in
  let cap' = 2 * cap in
  let extend fill a =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.subjects <- extend "" t.subjects;
  t.assets <- extend "" t.assets;
  t.modes <- extend "" t.modes;
  t.ops <- extend 0 t.ops;
  t.msg_ids <- extend no_msg_id t.msg_ids;
  t.nows <- extend 0.0 t.nows;
  t.exact_hash <- extend 0 t.exact_hash;
  t.wild_hash <- extend 0 t.wild_hash

let push_hashed t ~now ~mode ~subject ~subject_hash ~asset ~asset_hash op
    ~msg_id =
  if t.len = Array.length t.ops then grow t;
  let i = t.len in
  t.subjects.(i) <- subject;
  t.assets.(i) <- asset;
  t.modes.(i) <- mode;
  t.ops.(i) <- Ir.Request.op_tag op;
  t.msg_ids.(i) <- msg_id;
  t.nows.(i) <- now;
  t.exact_hash.(i) <- Ir.Request.triple_hash ~subject_hash ~asset_hash op;
  t.wild_hash.(i) <- Ir.Request.pair_hash ~asset_hash op;
  t.len <- i + 1

let push ?(now = 0.0) t (req : Ir.request) =
  push_hashed t ~now ~mode:req.mode ~subject:req.subject
    ~subject_hash:(String.hash req.subject) ~asset:req.asset
    ~asset_hash:(String.hash req.asset) req.op
    ~msg_id:(match req.msg_id with None -> no_msg_id | Some id -> id)
