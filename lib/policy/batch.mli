(** Struct-of-arrays request arena for the batched decision path.

    A [Batch.t] holds up to [capacity] requests decomposed into flat
    columns — one array per field, plus the two dispatch hashes of the
    compiled table pre-computed at fill time — so
    {!Engine.decide_batch} can stream over plain arrays instead of
    chasing one {!Ir.request} record per decision.  The arena is
    reusable: {!clear} resets the length without touching the buffers,
    so a caller that fills, decides and clears in a loop allocates
    nothing after the arena has grown to its working size.

    {b Representation.}  The record is exposed (rather than abstract)
    because the decision-table inner loop in {!Table} reads the columns
    directly; treat every field as owned by this library.  [ops] holds
    {!Ir.Request.op_tag} values, [msg_ids] uses {!no_msg_id} for
    requests without a message ID, and the [memo_*] fields are the
    mode-interning memo private to {!Table}'s row decisions. *)

type t = {
  mutable len : int;
  mutable subjects : string array;
  mutable assets : string array;
  mutable modes : string array;
  mutable ops : int array;  (** {!Ir.Request.op_tag} per request *)
  mutable msg_ids : int array;  (** {!no_msg_id} when the request has none *)
  mutable nows : float array;  (** rate-limit timestamps, seconds *)
  mutable exact_hash : int array;  (** {!Ir.Request.triple_hash} *)
  mutable wild_hash : int array;  (** {!Ir.Request.pair_hash} *)
  mutable memo_stamp : int;
  mutable memo_mode : string;
  mutable memo_id : int;
}

val no_msg_id : int
(** The [msg_ids] sentinel for "no message ID" ([-1]; real IDs are
    non-negative). *)

val create : ?capacity:int -> unit -> t
(** An empty arena with room for [capacity] (default 1024) requests
    before the first growth. *)

val length : t -> int

val capacity : t -> int

val clear : t -> unit
(** Forget the contents, keep the buffers: O(1), no allocation. *)

val push_hashed :
  t ->
  now:float ->
  mode:string ->
  subject:string ->
  subject_hash:int ->
  asset:string ->
  asset_hash:int ->
  Ir.op ->
  msg_id:int ->
  unit
(** Append one request from its names, the [String.hash] of its subject
    and asset, its operation and its message ID ({!no_msg_id} for none),
    mixing the dispatch keys by {!Ir.Request.triple_hash} and
    {!Ir.Request.pair_hash}.  A caller holding many requests over few
    names (the daemon's wire decode) hashes each name once and passes the
    same string for every row that names it.  [now] is the timestamp
    rate-limited rules will see, as in {!Engine.decide}.  Amortised O(1);
    allocates only when the arena must grow (doubling). *)

val push : ?now:float -> t -> Ir.request -> unit
(** {!push_hashed} of one request record, hashing its subject and asset.
    [now] defaults to [0.]. *)
