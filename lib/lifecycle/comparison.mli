(** Experiment Q2: exposure window under guideline redesign vs policy
    update.

    The exposure window runs from threat discovery until a target fraction
    of the fleet is protected: development time ({!Response}) plus fleet
    roll-out ({!Ota}).  A Monte-Carlo over both chains yields the
    distributions the bench reports.  The reproduction criterion is the
    paper's qualitative claim: the policy path is "significantly faster" —
    here, orders of magnitude at the median, robust across the parameter
    sweep. *)

type result = {
  kind : Response.kind;
  development : Secpol_sim.Stats.t;  (** days of development *)
  exposure : Secpol_sim.Stats.t;
      (** days from discovery to the protection target; unreachable targets
          (recall no-shows) are excluded and counted *)
  unreachable : int;  (** trials that never hit the protection target *)
}

val run :
  ?seed:int64 ->
  ?trials:int ->
  ?target:float ->
  ?params:Ota.params ->
  Response.kind ->
  result
(** [trials] default 500; [target] default 0.95 of the fleet.
    @raise Invalid_argument on no trials, a target outside (0, 1\], or
    [params] that fail {!Ota.validate} (from {!Ota.simulate}). *)

val compare_all :
  ?seed:int64 ->
  ?trials:int ->
  ?target:float ->
  ?params:Ota.params ->
  unit ->
  result list
(** All three response kinds under identical conditions. *)

val speedup : result list -> float option
(** Median exposure of [Guideline_redesign] divided by median exposure of
    [Policy_update]; [None] if either is missing or empty. *)

val pp_result : Format.formatter -> result -> unit
