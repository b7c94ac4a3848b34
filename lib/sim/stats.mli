(** Online statistics for simulation measurements. *)

type t
(** A running univariate sample: count, mean, variance (Welford), exact
    extrema, and a bounded reservoir for quantiles.  Memory is O(reservoir
    capacity) regardless of how many observations are added; below capacity
    the reservoir holds every observation and quantiles are exact, past it
    they are estimated from a uniform subsample (Algorithm R with a fixed
    per-instance seed, so runs are reproducible).

    NaN observations are never folded into the statistics: they are tallied
    separately (see {!nan_count}) and excluded from count, moments, extrema
    and quantiles.  Infinities are accepted as ordinary observations. *)

val create : ?reservoir:int -> unit -> t
(** [reservoir] (default 4096) caps retained observations.
    @raise Invalid_argument if it is not positive. *)

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
(** Non-NaN observations recorded. *)

val nan_count : t -> int
(** NaN observations seen (excluded from everything else). *)

val total : t -> float

val mean : t -> float
(** 0. on an empty sample. *)

val variance : t -> float
(** Unbiased sample variance; 0. for fewer than two observations. *)

val stddev : t -> float

val min : t -> float
(** Exact, even past reservoir capacity.
    @raise Invalid_argument on an empty sample. *)

val max : t -> float
(** Exact, even past reservoir capacity.
    @raise Invalid_argument on an empty sample. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in \[0,100\], nearest-rank method over the
    reservoir.  [p = 0.] and [p = 100.] return the exact minimum and
    maximum; other quantiles are exact while [count t] is within reservoir
    capacity and estimates thereafter.
    @raise Invalid_argument on an empty sample or out-of-range [p]. *)

val median : t -> float

val pp_summary : Format.formatter -> t -> unit
(** One-line [n/mean/sd/min/p50/p99/max] summary. *)
