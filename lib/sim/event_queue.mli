(** Binary-heap priority queue of timestamped events.

    Events at equal times pop in insertion order (the sequence number
    breaks ties), which keeps the simulation deterministic.

    The heap is laid out struct-of-arrays: the [(time, seq)] ordering
    key lives in an unboxed [float array] plus an [int array], so sift
    comparisons never dereference a boxed per-entry record; payloads
    ride in a parallel array untouched by comparisons.  Pushing
    allocates nothing once the arrays have grown to the high-water
    mark. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:Simtime.t -> 'a -> unit
(** [push q ~time e] enqueues [e] at [time].  Raises
    [Invalid_argument] on a non-finite or NaN time. *)

val pop : 'a t -> (Simtime.t * 'a) option
(** Remove and return the earliest event, insertion-ordered within
    equal times. *)

val push_keyed : 'a t -> time:Simtime.t -> key:int -> 'a -> unit
(** [push_keyed q ~time ~key e] enqueues [e] at [time] with an explicit
    tie-break key: equal-time events pop in ascending [key] order
    instead of insertion order.  The engine uses (creator, per-creator
    counter) keys so the order at equal times does not depend on the
    global push order.  Do not mix with {!push} in one queue unless the
    key spaces are disjoint.
    Raises [Invalid_argument] on a non-finite or NaN time. *)

val pop_if_before : 'a t -> horizon:Simtime.t -> default:'a -> 'a
(** [pop_if_before q ~horizon ~default] pops and returns the earliest
    payload iff its time is at or before [horizon]; otherwise returns
    [default] and leaves the queue untouched.  A single operation
    replacing the peek-then-pop pattern, and — unlike {!pop} — free of
    allocation, so callers whose payloads carry their own timestamps
    (or that pick an out-of-band [default]) can drain the queue without
    producing garbage. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
