(** Discrete-event simulation engine.

    The engine owns the clock and a queue of scheduled events.
    Protocols never read wall-clock time; everything observable happens
    inside a scheduled event, which makes runs deterministic.

    Equal-time events pop in ascending (creator, per-creator counter)
    order: the creator is the owner of the event that scheduled them
    ([-1] at setup), and the counter numbers that creator's schedules.
    Same-instant ties therefore resolve by what each node did, not by
    the global order of the pushes. *)

type t

type handle
(** A scheduled event, kept to {!cancel} it. *)

val create : ?nodes:int -> unit -> t
(** [create ~nodes ()] builds an engine whose events are owned by nodes
    [0 .. nodes-1], plus ownerless events (owner [-1]).  With
    [nodes = 0], the default, any owner is accepted.  Raises
    [Invalid_argument] if [nodes < 0]. *)

val now : t -> Simtime.t
(** Current simulated time. *)

val schedule : t -> ?owner:int -> at:Simtime.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] at absolute time [at].  [owner] is the
    node the event belongs to — the creator of whatever it schedules in
    turn; it defaults to the owner of the currently executing event
    ([-1] at setup).  Raises [Invalid_argument] if [at] is in the past
    or not finite, or [owner] is outside [[-1, nodes)]. *)

val schedule_in : t -> ?owner:int -> after:Simtime.t -> (unit -> unit) -> handle
(** [schedule_in t ~after f] runs [f] after a relative delay. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired or already-cancelled
    event is a no-op. *)

val run : ?until:Simtime.t -> t -> unit
(** Execute events in time order until the queue drains or the next
    event lies strictly beyond [until].  The clock ends at the last
    executed event (or at [until] when given and reached). *)

val pending : t -> int
(** Number of events still queued (including cancelled husks). *)
