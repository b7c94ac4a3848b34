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
    buckets containing one keep the scan form and ask the caller's budget
    through the [rate_admit] callback passed to {!decide}.

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
  rate_admit:(Ir.rule -> bool) ->
  Ir.request ->
  Ast.decision * Ir.rule option
(** One table lookup (+ bucket scan when the bucket could not be folded).
    [rate_admit r] asks rated allow rule [r]'s budget for this request's
    subject once: room records the grant, which grounds the [Allow]. *)

type 'budget answer = {
  rated : 'budget array;
      (** the rate-limited allows a request consults, in decide order *)
  otherwise : Ast.decision;  (** the answer when none of them has room *)
}
(** A request's answer with its budgets left open.  The table's own
    answers name the rules ({!resolved}); an HPE holds the same answer
    over its budget slot indices. *)

type resolved = Ir.rule answer

val resolve : t -> Ir.request -> resolved
(** [resolve t req] dispatches and scans [req] once, so a caller that
    asks the same request many times pays the lookup once.  [otherwise]
    is the first matching rule that is not a rated allow, or the default
    when none matches.  {!decide}[ t ~rate_admit req] equals
    {!first_with_room} over [rate_admit] on this answer.  A request no
    rated allow matches has [rated = [||]], a fixed answer; fixed answers
    are shared records, so resolving one allocates nothing.  The result
    is immutable, so any number of domains can share it. *)

val resolver :
  t -> mode:string -> subject:string -> asset:string -> Ir.op -> int -> resolved
(** {!resolve} staged: one dispatch of the [(subject, asset, op)] bucket,
    then one message ID at a time ([-1]: none).  The HPE's budgets and the
    gateway's flows are read this way. *)

val first_with_room :
  ('budgets -> 'budget -> now:float -> bool) ->
  'budgets ->
  'budget answer ->
  now:float ->
  Ast.decision
(** The one walk over an answer: [admit budgets b ~now] for each [b] of
    [a.rated] in order, over the caller's own [budgets] (a vehicle's
    windows, an HPE's slots); the first that admits grants [Allow], and
    with none [a.otherwise] decides.  The walk allocates nothing. *)

val decide_batch :
  t ->
  rate_admit:(Ir.rule -> Batch.t -> int -> bool) ->
  Batch.t ->
  out:Ast.decision array ->
  int
(** {!decide} for every row in order, without matched-rule attribution,
    writing [out.(i)] for row [i] (the caller guarantees [Array.length out
    >= Batch.length]) and returning the number of [Allow] decisions,
    counted inside the sweep so the engine's stats need no second pass.
    [rate_admit r b i] asks [r]'s budget for row [i]; an {!Engine} keys
    its own by the row's subject and timestamp.  A batch's mode memo is
    mutable, so a batch belongs to one domain at a time.  The sweep itself
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
