(** The daemon's wire format: compact length-prefixed binary frames.

    A frame is a little-endian [u32] payload length followed by the
    payload; a payload is one type byte and the message body.  A decide
    request (type 8) names each distinct mode, subject and asset once.
    Its body is the [u32] id and the [u16] request count [n]; three name
    tables (modes, then subjects, then assets), each a [u16] count and
    that many [u16]-length-prefixed names; three columns of [n] [u16]
    indices into those tables; then [n] op bytes and [n] [i32] message
    ids ([-1] for none).  A batch of hundreds of requests over a couple
    of dozen names ships each name once, and the daemon decodes each
    once; each shard's worker hashes each once as it fills its
    {!Secpol_policy.Batch} arena from the columns.  Type 1, the layout that sent every request's names in
    full, is an unknown type.  Decide responses pack one decision per
    bit (LSB first, 1 = allow).

    Decoding {e fails closed}: any malformed input — truncated body,
    oversized length prefix, unknown type or op tag, a negative message
    id other than [-1], an index outside its table, trailing bytes —
    raises {!Malformed}, and the daemon's contract is to count it and
    drop the connection rather than guess. *)

module Ir = Secpol_policy.Ir

exception Malformed of string

val max_payload : int
(** Frames larger than this (16 MiB) are rejected before allocation. *)

val max_batch : int
(** Requests per decide message (65535 — the count is a [u16]). *)

type reload_status =
  | Swapped  (** new generation published *)
  | Refused_widened  (** verify gate: the update widens allow regions *)
  | Rejected  (** parse/compile failure; nothing changed *)

type interned = {
  modes : string array;  (** the distinct modes, in first-use order *)
  subjects : string array;  (** the distinct subjects *)
  assets : string array;  (** the distinct assets *)
  mode_ix : int array;  (** request [i]'s mode is [modes.(mode_ix.(i))] *)
  subject_ix : int array;
  asset_ix : int array;
  ops : Ir.op array;
  msg_ids : int array;
      (** {!Secpol_policy.Batch.no_msg_id} when the request has none *)
}
(** A decide's batch as it crosses the wire: name tables plus one column
    per request field. *)

val intern : Ir.request array -> interned
(** The batch in interned form, tables in first-use order: a name is
    found by physical equality among a table's first few names, else by
    one hash-table lookup, so interning is linear in the batch (expected)
    whatever the names.
    @raise Malformed on a negative message id. *)

val length : interned -> int
(** Requests in the batch. *)

val fill :
  interned ->
  now:float ->
  subject_shard:int array ->
  shard:int ->
  Secpol_policy.Batch.t ->
  unit
(** [fill r ~now ~subject_shard ~shard arena] appends to [arena], in
    order, every request whose subject's shard is [shard] (subject [s]
    of [r.subjects] is on shard [subject_shard.(s)]), through
    {!Secpol_policy.Batch.push_hashed} at [now]: each distinct subject
    and asset is hashed once, and every row naming one holds the same
    string. *)

type msg =
  | Decide_req of { id : int; reqs : interned }
  | Decide_resp of {
      id : int;
      degraded : bool;
          (** answers are fail-safe denies: a shard stalled or missed its
              watchdog deadline *)
      shed : bool;
          (** answers are fail-safe denies: admission shed the batch *)
      allows : bool array;
    }
  | Stats_req of { id : int }
  | Stats_resp of { id : int; body : string }  (** [body] is JSON *)
  | Reload_req of { id : int; allow_widen : bool; source : string }
  | Reload_resp of {
      id : int;
      status : reload_status;
      widened : int;
      tightened : int;
      changed : int;
      epoch : int;  (** generation now serving *)
      detail : string;
    }
  | Error_resp of { id : int; message : string }

val encode_payload : msg -> string
(** The payload bytes (no length prefix).
    @raise Malformed when a field is unrepresentable (batch over
    {!max_batch}, columns of unequal length, an index outside its table,
    a message id outside [\[-1, 2^31)], an out-of-range integer). *)

val decode_payload : string -> msg
(** Inverse of {!encode_payload}: [decode_payload (encode_payload m)]
    equals [m] for every representable message.  A decide decodes into
    its name tables and [int] columns: it allocates one string per
    distinct name, and its columns are sized by the request count but
    start from constants, so a decide of more than 256 requests forces
    no minor collection.
    @raise Malformed on anything else, including a name-table count the
    rest of the payload cannot hold and an index equal to or past its
    table's count. *)

val input_msg : Unix.file_descr -> msg
(** Read one complete frame (blocking).
    @raise Malformed on an oversized prefix or an undecodable payload;
    @raise End_of_file when the peer closed mid-frame or cleanly. *)

val output_msg : Unix.file_descr -> msg -> unit
(** Write one complete frame (blocking). *)

val equal : msg -> msg -> bool

val type_name : msg -> string
