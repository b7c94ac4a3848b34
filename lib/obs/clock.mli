(** One shared measurement clock for every timing loop.  The benchmark
    protocol, the parallel serving layer, the daemon and the fleet
    campaign all read it, so an interval from one is comparable with an
    interval from another.

    The clock is wall time made {e monotonic}: readings are clamped to a
    process-wide high-water mark, so a backwards NTP step can flatten an
    interval to zero but never produce a negative one.  The watermark is
    an {!Atomic}, making the clamp safe to read from every domain of the
    parallel serving layer. *)

val now : unit -> float
(** Monotonic-ized wall clock, in seconds.  Absolute values are only
    meaningful relative to other [now] readings in the same process. *)

val resolution : float
(** Smallest interval this clock can distinguish, in seconds (1 µs — the
    granularity of [Unix.gettimeofday]).  Two [now] readings closer than
    this may compare equal; timing code dividing by an elapsed interval
    should clamp to [resolution] rather than special-case zero. *)
