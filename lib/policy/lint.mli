(** The lint pass framework: static analyses that run over a compiled
    {!Ir.db} and return {!Diagnostic.t}s.

    The paper's policy-update story (ship a policy, not a redesign) only
    holds if an updated policy can be verified {e before} deployment; this
    is the verification stage.  Passes are plain values, so layers above
    the policy library (the HPE, the vehicle case study) contribute
    cross-layer analyses by handing passes of their own to {!run} — see
    [Secpol_vehicle.Lint_passes]. *)

type config = {
  strategy : Engine.strategy;
      (** resolution strategy the deployment will use; reachability depends
          on it *)
  modes : string list option;
      (** declared mode universe; enables the [SP005 mode-unknown] pass and
          widens the coverage grid *)
  subjects : string list option;  (** coverage universe override *)
  assets : string list option;  (** coverage universe override *)
}

val default_config : config
(** [Deny_overrides], no declared universes. *)

type pass = {
  name : string;
  short : string;  (** one-line description for [--list-passes] style output *)
  run : config -> Ir.db -> Diagnostic.t list;
}

val pass : name:string -> short:string -> (config -> Ir.db -> Diagnostic.t list) -> pass

(** {1 Built-in passes}

    The rule-pair codes (SP001, SP002, SP004, SP007) compare rules by
    {!Verify.scope}: the cells of the policy's own universe a rule applies
    to, times its message region, whatever [config]'s universe overrides
    say.  Two rules {e overlap} when they share a cell and their regions
    meet; [a] {e covers} [b] when [a] is unrated and [b]'s cells and
    region lie inside [a]'s. *)

val conflict_pass : pass
(** [SP001]: overlapping rules with opposite decisions. *)

val shadow_pass : pass
(** [SP002]: a rule fully covered by an earlier rule with the same
    decision. *)

val coverage_pass : pass
(** [SP003]: cells of the (mode, subject, asset, op) grid that no rule
    decides — including cells decided only for some message ids.  Each
    cell is classified by the default region of its
    {!Verify.partition}: a gap when the default decides every message, a
    partial cell (with the ranges the rules decide) when it decides some.
    Gaps falling to [default deny] are informational (fail-safe); gaps
    falling to [default allow] are warnings (unreviewed permission). *)

val unreachable_pass : pass
(** [SP004]: rules no request can trigger under [config.strategy] — an
    allow covered by a deny under [Deny_overrides], a deny covered by an
    unlimited allow under [Allow_overrides], a rule covered by an earlier
    opposite-decision rule under [First_match].  (Same-decision cover is
    [SP002]; a rule that only several rules jointly occlude is the
    verifier's [SP011].) *)

val mode_pass : pass
(** [SP005]: rules naming modes outside [config.modes] — typos that
    silently never match.  Skipped when no universe is declared. *)

val rate_pass : pass
(** [SP006]: a rate limit on a deny rule; [SP007]: a rate limit that never
    binds because an unlimited allow rule covers the same scope.  Under
    [First_match] a coverer after the rated rule counts only when no deny
    rule between the two overlaps the rated rule: a spent budget falls
    through in source order, and such a deny is reached first. *)

val builtin : pass list
(** The passes above, in order. *)

(** {1 Running} *)

val run : ?passes:pass list -> config -> Ir.db -> Diagnostic.t list
(** Run [passes] (default {!builtin}) and return all diagnostics in
    {!Diagnostic.compare} order. *)

val report_to_json : Ir.db -> Diagnostic.t list -> Json.t
(** The machine-readable report: policy name/version, diagnostics, and a
    per-severity summary. *)

val pp_report : Format.formatter -> Ir.db * Diagnostic.t list -> unit
(** The human-readable report: one line per diagnostic plus a summary. *)
