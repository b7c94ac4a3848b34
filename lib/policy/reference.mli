(** The reference semantics of a policy, as a direct scan.

    Each decision filters the rules indexed under the request's asset, in
    source order, and resolves the matches by the strategy at decision
    time — the definition the compiled {!Table} must reproduce.  This is
    an {e oracle}, not an enforcement path: {!Verify}'s equivalence proof
    (SP014), the equivalence properties and the benchmarks' interpreted
    baseline use it, while {!Engine} decides over the compiled table
    only.

    Rate-limited allow rules get sliding-window budgets per
    [(rule, subject)], private to each reference, with the engine's
    semantics: an exhausted rule is skipped, and its budget is consumed
    only when it grounds the Allow.  A reference and an engine fed the
    same request sequence therefore agree decision for decision. *)

type t

val create : ?strategy:Table.strategy -> Ir.db -> t
(** [strategy] defaults to [Deny_overrides]. *)

val decide : ?now:float -> t -> Ir.request -> Ast.decision * Ir.rule option
(** The decision and the rule that determined it ([None]: the policy
    default).  [now] (seconds, default [0.]) drives the rate limits as in
    {!Engine.decide}. *)
