(** Binary-heap priority queue of timestamped events.

    Events pop in ascending [(time, key)] order: the caller chooses the
    tie-break key of each entry, so the order at equal times never
    depends on the order of the pushes.

    The heap is laid out struct-of-arrays: the [(time, key)] ordering
    key lives in an unboxed [float array] plus an [int array], so sift
    comparisons never dereference a boxed per-entry record; payloads
    ride in a parallel array untouched by comparisons. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty queue.  [dummy] fills every array slot
    that holds no queued payload, so a popped payload is never kept
    alive by the queue, and [pop_if_before] returns it when nothing is
    due. *)

val push_keyed : 'a t -> time:Simtime.t -> key:int -> 'a -> unit
(** [push_keyed q ~time ~key e] enqueues [e] at [time]; equal-time
    events pop in ascending [key] order.  The engine uses (creator,
    per-creator counter) keys.  Raises [Invalid_argument] on a
    non-finite or NaN time. *)

val pop_if_before : 'a t -> horizon:Simtime.t -> 'a
(** [pop_if_before q ~horizon] pops and returns the earliest payload
    iff its time is at or before [horizon]; otherwise returns the
    queue's dummy and leaves the queue untouched. *)

val size : 'a t -> int
