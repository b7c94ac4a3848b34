(** A mutable binary min-heap: the one priority queue behind the
    simulator's {!Event_queue} and the CAN bus's arbitration queue.

    A vacated slot is cleared on pop, [drain_if] and [clear], so a heap
    that shrinks after a burst does not pin the burst's elements against
    the GC.  The winning frame of a babbling-idiot storm is an O(log n)
    pop and the queue depth an O(1) field read. *)

type 'a t

val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t
(** [cmp a b < 0] means [a] pops before [b].  [capacity] (default 16) is
    only the initial allocation; the heap grows by doubling. *)

val length : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** O(log n) amortised. *)

val peek : 'a t -> 'a option
(** The minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val clear : 'a t -> unit
(** Remove every element, releasing them all.  O(n). *)

val drain_if : 'a t -> ('a -> bool) -> 'a list
(** Remove every element satisfying the predicate in one O(n) sweep
    (the survivors are re-heapified bottom-up).  The removed elements
    are returned in {e unspecified} order — sort if order matters. *)
