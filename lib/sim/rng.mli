(** Deterministic pseudo-random number generation for simulations.

    Every stochastic component of the simulator draws from an explicit
    generator state so that a run is fully reproducible from its seed.  The
    implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), which is
    fast, passes BigCrush, and supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed, used as
    SplitMix64's counter as it is.  Seeds a multiple of the counter's
    increment apart therefore give one stream shifted by whole draws:
    [create (Int64.add s gamma)]'s first draw is [create s]'s second.
    Derive a family of generators from one seed with {!keyed}. *)

val keyed : int64 -> int -> t
(** [keyed seed key] is the generator of one member of a seeded family,
    such as one vehicle of a fleet: its counter is SplitMix64's output
    function over [seed + gamma * (key + 1)], so neighbouring keys give
    unrelated streams and no key's draws are another's, shifted. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Use one split stream per simulated component so that adding a component
    does not perturb the draws of the others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound) — exactly uniform, by
    rejection sampling: draws from the incomplete final block of the
    62-bit space are redrawn rather than folded (modulo-biased) onto the
    small residues.  @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to \[0,1\]). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean.  Used for stochastic inter-arrival times. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    an empty array. *)
