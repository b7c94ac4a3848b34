(** Cross-layer lint passes for the connected-car deployment.

    The built-in passes in [Secpol_policy.Lint] see only the compiled rule
    database.  These passes also see the layers the paper deploys it to:

    - {!hpe_consistency} checks the paper's transparency property (Fig. 4):
      the hardware approved-ID lists read off the compiled table
      ([Secpol_hpe.Config.of_policy]) and the reference semantics
      ([Secpol_policy.Reference.decide]) must agree on every (binding, op).
      The HPE filters per message id, so two bindings sharing an id on
      different assets — or a resolution strategy the hardware compiler
      does not model — surface here as [SP008 hpe-mismatch].

    - {!threat_traceability} checks that every countermeasure row of the
      Table-I threat catalogue still maps to at least one rule of the
      policy under lint; an orphaned threat means a mitigation was lost in
      a policy update and is reported as [SP009 threat-untraced]. *)

module Policy = Secpol_policy

val hpe_consistency :
  ?bindings:Secpol_hpe.Config.binding list ->
  ?modes:string list ->
  ?subjects:string list ->
  unit ->
  Policy.Lint.pass
(** Defaults: the vehicle message map ({!Messages.bindings}), all car modes
    and all node subjects.  The lists come from one [Deny_overrides] table
    per run, one {!Secpol_hpe.Config.of_policy} pass per mode.  The
    software side is the reference scan under the lint config's strategy,
    a fresh one per request, so rate budgets cannot skew the
    comparison. *)

val threat_traceability : ?rows:Threat_catalog.row list -> unit -> Policy.Lint.pass
(** Defaults to the full sixteen-row catalogue. *)

val passes : unit -> Policy.Lint.pass list
(** Both passes with their defaults. *)
