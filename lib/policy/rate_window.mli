(** Sliding-window admission budget: at most [count] grants within any
    [window_ms]-millisecond window.

    This is the one budget behind every behavioural rate limit (engine,
    reference, fleet vehicle, HPE slot), so the edge semantics are
    defined here once:

    - a grant at time [g] occupies the budget for [now - g < window],
      i.e. it expires at exactly [g + window] ({e inclusive} expiry: an
      admit attempted precisely one window after a grant no longer sees
      it);
    - admission at a given [now] first expires old grants, then admits
      iff fewer than [count] live grants remain, recording the grant.

    {b Storage.}  The live grants sit in a ring of floats in one array:
    two slots at the first grant, then doubled, up to [count], as grants
    need room, so [rate 1000000000 per 1000] costs what its traffic uses.
    An admit that does not grow the ring allocates nothing.

    {b Clock assumption.}  Timestamps are expected to be non-decreasing
    across calls (simulation or monotonic time); expiry then only removes
    from the front of the ring, making every operation O(1) amortised.
    The window is defensive about violations: a grant recorded at a [now]
    earlier than the newest recorded grant is stamped with that newest
    timestamp instead, so the ring stays sorted and front-only expiry
    remains exact.  A backwards clock step therefore never lets stale
    grants linger past their blocker's expiry, and never lets a regressed
    grant expire earlier than the grants issued before it.  [admit] and
    [in_window] at a regressed [now] simply see a smaller horizon and
    expire nothing — the conservative (fail-closed) reading of a clock
    fault. *)

type t

val create : count:int -> window_ms:int -> t
(** @raise Invalid_argument on a negative count or non-positive window. *)

val of_rate : Ast.rate -> t

val admit : t -> now:float -> bool
(** Expire the grants one window old at [now]; then, when fewer than
    [count] remain, record a grant and answer [true].  A grant at a [now]
    earlier than the newest recorded one is stamped with the newest (see
    the clock assumption above). *)

val admit_rule :
  (int * string, t) Hashtbl.t -> Ir.rule -> string -> now:float -> bool
(** Rule [r]'s window for [subject] in [budgets], made on first use, asked
    to {!admit}; a rule without a rate always admits. *)

val in_window : t -> now:float -> int
(** Live grants at [now]. *)

val reset : t -> unit
(** Forget consumption history (including the clock-clamp watermark); the
    budget itself is immutable. *)
