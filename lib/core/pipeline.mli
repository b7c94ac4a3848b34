(** The end-to-end policy-based security modelling pipeline — the paper's
    proposed flow in one call chain:

    threat model (STRIDE + DREAD) -> derived least-privilege policy ->
    compiled rule database -> static validation (conflicts, shadowing) ->
    sealed update bundle -> installation on the device store.

    The post-deployment loop ({!respond_to_new_threat}) is the headline
    capability: a newly discovered threat becomes an installable policy
    bundle without touching the device design. *)

type report = {
  model : Secpol_threat.Model.t;
  policy : Secpol_policy.Ast.policy;
  db : Secpol_policy.Ir.db;
  conflicts : Secpol_policy.Diagnostic.t list;  (** lint's SP001 findings *)
  shadowed : Secpol_policy.Diagnostic.t list;  (** lint's SP002 findings *)
  bundle : Secpol_policy.Update.bundle;
  residual : Secpol_threat.Threat.t list;
      (** threats a read/write policy cannot fully block (Table I's W/RW
          rows) *)
}

val derive : ?version:int -> ?at:float -> Secpol_threat.Model.t -> report
(** Model to sealed bundle.  Never fails on a valid model: derived
    policies compile by construction (asserted by tests). *)

val deploy :
  Secpol_policy.Update.store -> report -> (unit, string) result
(** Install the report's bundle. *)

val respond_to_new_threat :
  store:Secpol_policy.Update.store ->
  model:Secpol_threat.Model.t ->
  threat:Secpol_threat.Threat.t ->
  at:float ->
  (report, string list) result
(** The post-deployment loop: extend the model with the new threat,
    re-derive at the next version number, validate, seal and install. *)

val pp_report : Format.formatter -> report -> unit
