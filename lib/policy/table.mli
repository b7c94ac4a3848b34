(** Compiled decision tables: the wire-speed fast path of the policy
    engine.

    {!Reference} scans every rule indexed under the request's asset on
    every decision.  This module instead lowers an {!Ir.db} once, at
    policy-load time, into an indexed structure so the hot path is a single
    hash lookup (paper Fig. 4's hardware decision block; DiSPEL compiles
    bus policies into per-node tables for the same reason):

    - rules are bucketed by [(subject, asset, op)] into a flat
      {e open-addressed} dispatch (power-of-two capacity, linear probing,
      dedicated hashing via {!Ir.Request.triple_hash} — no polymorphic
      hashing, and no per-lookup allocation the way [Hashtbl.find_opt]
      would); rules over [any] subject are merged into every named
      subject's bucket and also kept in a wildcard [(asset, op)] dispatch
      ({!Ir.Request.pair_hash}) for subjects the policy never names;
    - mode lists are interned to bitmasks and message-ID ranges lowered to
      sorted interval arrays ({!Intervals}), so per-rule matching is a mask
      test plus a binary search;
    - the conflict-resolution strategy is folded away at compile time by
      reordering each bucket (deny-overrides hoists denies, allow-overrides
      hoists allows, first-match keeps source order), after which runtime
      resolution for every strategy is "first match in bucket order wins";
    - a bucket whose first rule matches unconditionally (all modes, all
      message IDs, no rate limit) collapses to a precomputed constant
      decision — the common case for generated least-privilege policies;
    - a bucket whose rules are all {e mode-only} (no message ranges, no
      rates, mode lists interned to masks) collapses to one precomputed
      decision per interned mode id, so deciding it is a single array
      read indexed by the request's mode — no scan, no branches.

    Rate-limited rules cannot be folded (their outcome is time-dependent);
    buckets containing one keep the scan form and consult the engine's
    budget through the callbacks passed to {!decide}.

    {b Immutability.}  A table is frozen once {!compile} returns: no
    operation in this interface (or in the implementation) mutates it, so
    one compiled table can be shared {e read-only} by any number of
    engines — including engines running in different OCaml domains
    ({!Secpol_par} relies on this; per-engine mutable state such as rate
    budgets lives in {!Engine}, never here). *)

type strategy = Deny_overrides | Allow_overrides | First_match
(** Re-exported by {!Engine.strategy}; defined here so compilation does not
    depend on the engine. *)

type t

val compile : strategy:strategy -> Ir.db -> t
(** Lower [db] for [strategy].  Observable semantics of {!decide} are
    identical to {!Reference.decide} for the same strategy. *)

val strategy : t -> strategy
(** The strategy the table was compiled for (folded into bucket order at
    compile time, so it cannot be changed afterwards). *)

val default : t -> Ast.decision

val decide :
  t ->
  rate_available:(Ir.rule -> bool) ->
  rate_consume:(Ir.rule -> unit) ->
  Ir.request ->
  Ast.decision * Ir.rule option
(** One table lookup (+ bucket scan when the bucket could not be folded).
    [rate_available r] must report whether rate-limited allow rule [r] has
    budget for this request's subject; [rate_consume r] is called exactly
    when [r] grounds an [Allow] decision.  Rules without a rate limit never
    reach the callbacks. *)

type resolved = {
  rated : Ir.rule array;
      (** the rate-limited allows {!decide} would consult, in its order *)
  otherwise : Ast.decision;  (** the answer when none of them has budget *)
}
(** One request's answer with the budgets left open. *)

val resolve : t -> Ir.request -> resolved
(** [resolve t req] dispatches and scans [req] once, so a caller that
    asks the same request many times pays the lookup once.  [otherwise]
    is the first matching rule that is not a rated allow, or the default
    when none matches.  {!decide}[ t ~rate_available ~rate_consume req]
    equals: the first [r] in [rated] with [rate_available r] is consumed
    and grounds [Allow]; with none, the answer is [otherwise].  A request
    no rated allow matches has [rated = [||]], a fixed answer.  The
    result is immutable, so any number of domains can share it. *)

val static_query :
  t ->
  mode:string ->
  subject:string ->
  asset:string ->
  Ir.op ->
  int ->
  Ast.decision * Ast.rate option
(** The table read statically, with no budget state: [static_query t
    ~mode ~subject ~asset op] dispatches the [(subject, asset, op)] bucket
    once, and the function it returns answers for one message ID at a
    time.  The decision is {!decide}'s when every rate-limited allow has a
    fresh budget that is never spent, so such a rule grounds an [Allow]
    while its count is positive, for every ID and every caller.  The rate
    is the budget an [Allow] is held to: the strictest rate (fewest grants
    per second, the earliest rule on a tie) among the matching allow
    rules, or [None] when one of them is unlimited, none matches, or the
    decision is [Deny].  The HPE's approved lists are read this way, one
    query per (subject, asset, op) and mode. *)

val decide_row :
  t ->
  rate_available:(Ir.rule -> Batch.t -> int -> bool) ->
  rate_consume:(Ir.rule -> Batch.t -> int -> unit) ->
  Batch.t ->
  int ->
  Ast.decision
(** Decide row [i] of the batch as {!decide} would decide the request
    that filled it, over the row's pre-computed hashes and without
    matched-rule attribution.  Only rate-limited allow rules reach the
    callbacks, which get the rule, the batch and the row:
    [rate_available r b i] reports whether [r] has budget for that row,
    and [rate_consume r b i] is called exactly when [r] grounds the
    [Allow].  Whose budget that is is the caller's choice; an {!Engine}
    keys its own by the row's subject and timestamp.  (A caller that
    asks a few fixed requests over and over reads them off {!resolve}
    instead.)  A batch's mode memo is mutable, so a batch belongs to one
    domain at a time.
    @raise Invalid_argument when [i < 0] or [i >= Batch.length b]. *)

val decide_batch :
  t ->
  rate_available:(Ir.rule -> Batch.t -> int -> bool) ->
  rate_consume:(Ir.rule -> Batch.t -> int -> unit) ->
  Batch.t ->
  out:Ast.decision array ->
  int
(** {!decide_row} over every row in order, writing [out.(i)] for row [i]
    (the caller guarantees [Array.length out >= Batch.length]) and
    returning the number of [Allow] decisions, counted inside the sweep
    so the engine's stats need no second pass.  The sweep itself
    allocates nothing (see {!Engine.decide_batch}). *)

type stats = {
  buckets : int;  (** exact [(subject, asset, op)] buckets *)
  wildcard_buckets : int;  (** [(asset, op)] buckets for unnamed subjects *)
  folded : int;  (** buckets collapsed to a constant decision *)
  mode_folded : int;  (** buckets collapsed to a per-mode decision array *)
  max_bucket : int;  (** longest residual scan *)
  modes : int;  (** distinct interned mode names *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
