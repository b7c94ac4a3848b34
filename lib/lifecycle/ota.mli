(** Fleet roll-out models: how fast protection reaches deployed vehicles
    once the fix exists.

    Over-the-air updates follow a fast exponential uptake (vehicles apply
    the update as they come online).  Recalls are far slower: owners book
    dealer visits at a low rate and a fraction never show up at all —
    automotive recall completion rates famously plateau well below 100%.
    Either channel can deliver a tampered bundle, which the vehicle
    refuses; a clean copy follows over the same channel.

    {!delay} is the one per-vehicle draw: {!simulate} and both of
    {!Campaign}'s per-vehicle streams call it. *)

type channel = Over_the_air | Recall

type params = {
  fleet : int;  (** number of vehicles *)
  ota_mean_days : float;  (** mean days for one vehicle to apply an OTA *)
  recall_mean_days : float;  (** mean days until an owner visits the dealer *)
  recall_no_show : float;  (** fraction of owners who never respond *)
  corruption : float;
      (** probability that a delivery arrives tampered; the vehicle
          refuses it and a clean copy is sent again *)
}

val default_params : params
(** 100k vehicles; OTA mean 3 days; recall mean 90 days with 25%% never
    completing; no tampered deliveries. *)

val validate : params -> (unit, string) result
(** The one check of a parameter set: a positive fleet, positive means,
    a no-show fraction in \[0, 1\] and a corruption probability in
    \[0, 1): at exactly 1 no clean copy could ever land. *)

val delay :
  Secpol_sim.Rng.t -> params -> channel -> on_tampered:(unit -> unit) -> float
(** One vehicle's days until the update lands on [channel] ([infinity] =
    never).  Over the air: an exponential at [ota_mean_days].  By recall:
    a no-show draw, then an exponential at [recall_mean_days].  Then,
    while a delivery arrives tampered (probability [corruption]), one
    more exponential at the same channel's mean, after calling
    [on_tampered].  At [corruption = 0] it draws nothing more, and a
    no-show receives no delivery.  [params] must pass {!validate}. *)

type rollout = {
  channel : channel;
  days_to_quantile : float -> float option;
      (** [days_to_quantile q] = days until fraction [q] of the fleet is
          protected; [None] when the channel can never reach [q] *)
  protected_at : float -> float;
      (** fraction of fleet protected [d] days after release *)
}

val simulate : Secpol_sim.Rng.t -> params -> channel -> rollout
(** Draw every vehicle's {!delay}, in turn from [rng], and build the
    empirical curve.  A quantile is one O(n) selection and a point of the
    curve one O(n) count; the times are never sorted.  [days_to_quantile]
    reorders the rollout's own times in place (no answer changes), so a
    rollout must not be queried from two domains at once.
    @raise Invalid_argument when [params] fails {!validate}. *)

val of_times : channel -> float array -> rollout
(** The empirical curve of given per-vehicle protection times ([infinity]
    = never protected), as {!simulate} builds it from its draws.  The
    array is copied.  @raise Invalid_argument on an empty array. *)

val channel_name : channel -> string
