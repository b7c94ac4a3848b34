(** Priority queue of timestamped events.

    A {!Binheap} ordered by [(time, sequence)]: events fire in time order,
    and events scheduled for the same instant fire in insertion order
    (FIFO), which keeps simulations deterministic. *)

type 'a t
(** Queue of events carrying payloads of type ['a]. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val add : 'a t -> time:float -> 'a -> unit
(** [add q ~time payload] schedules [payload] at [time].
    @raise Invalid_argument if [time] is NaN. *)

val peek_time : 'a t -> float option
(** Earliest scheduled time, if any. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event.  The queue drops its reference
    to the popped payload immediately — long-running simulations cannot
    leak popped payloads through vacated heap slots. *)

val clear : 'a t -> unit
(** Empty the queue, releasing every pending payload. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, in firing order. *)
