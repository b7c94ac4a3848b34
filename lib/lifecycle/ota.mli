(** Fleet roll-out models: how fast protection reaches deployed vehicles
    once the fix exists.

    Over-the-air updates follow a fast exponential uptake (vehicles apply
    the update as they come online).  Recalls are far slower: owners book
    dealer visits at a low rate and a fraction never show up at all —
    automotive recall completion rates famously plateau well below 100%. *)

type channel = Over_the_air | Recall

type params = {
  fleet : int;  (** number of vehicles *)
  ota_mean_days : float;  (** mean days for one vehicle to apply an OTA *)
  recall_mean_days : float;  (** mean days until an owner visits the dealer *)
  recall_no_show : float;  (** fraction of owners who never respond *)
}

val default_params : params
(** 100k vehicles; OTA mean 3 days; recall mean 90 days with 25%% never
    completing. *)

type rollout = {
  channel : channel;
  days_to_quantile : float -> float option;
      (** [days_to_quantile q] = days until fraction [q] of the fleet is
          protected; [None] when the channel can never reach [q] *)
  protected_at : float -> float;
      (** fraction of fleet protected [d] days after release *)
}

val simulate : Secpol_sim.Rng.t -> params -> channel -> rollout
(** Draw per-vehicle protection times and build the empirical curve.  A
    quantile is one O(n) selection and a point of the curve one O(n)
    count; the times are never sorted.  [days_to_quantile] reorders the
    rollout's own times in place (no answer changes), so a rollout must
    not be queried from two domains at once. *)

val of_times : channel -> float array -> rollout
(** The empirical curve of given per-vehicle protection times ([infinity]
    = never protected), as {!simulate} builds it from its draws.  The
    array is copied.  @raise Invalid_argument on an empty array. *)

val channel_name : channel -> string
