(** Deterministic fault injection for the message network.

    A {!plan} is a serializable description of network and node faults:
    probabilistic per-link loss windows, bidirectional link partitions,
    per-message extra-delay jitter, message duplication, and per-node
    crash/recover windows.  {!Net} interposes an instantiated plan on
    every send and delivery, so each protocol driver inherits the whole
    fault model without code of its own.

    All randomness is keyed off the plan's canonical serialization,
    per message: message [k] on link [(src, dst)] draws from its own
    stream seeded by [(plan, src, dst, k)].  A message's draws then
    depend only on its position in its link's send sequence — the
    sender's program order — never on how sends on different links
    interleave, so a (spec, plan) pair replays bit-identically across
    processes and worker counts.  Every committed chaos verdict and
    break count depends on this keying: a single global stream would
    deal the draws out differently.

    Window convention: a fault is active while [start <= now < stop]
    (half-open, like the NIC's {!Nic.limit_window}). *)

type kind =
  | Drop of { src : int; dst : int; prob : float }
      (** Lose each [src]→[dst] message with probability [prob] at
          send time ([any] is a wildcard endpoint).  The egress bytes
          are still charged — the packet died in the network, not in
          the sender's queue. *)
  | Partition of { a : int; b : int }
      (** Cut the [a]↔[b] link in both directions. *)
  | Delay of { src : int; dst : int; max_extra : float }
      (** Add uniform [\[0, max_extra)] seconds of extra propagation
          latency to each matching message. *)
  | Duplicate of { src : int; dst : int; prob : float }
      (** Deliver each matching message twice with probability [prob]
          (same arrival instant; models retransmission races). *)
  | Crash of { node : int }
      (** The node is down: its sends are suppressed and messages
          arriving at it are discarded. *)

type fault = { kind : kind; start : float; stop : float }

type plan = { seed : string; faults : fault list }
(** [seed] salts the plan's RNG stream so two plans with identical
    fault lists can still diverge. *)

val any : int
(** Wildcard endpoint ([-1]): matches every node id. *)

val empty : plan

val crash_nodes : plan -> int list
(** Sorted, de-duplicated ids of nodes with a [Crash] window. *)

val clears_at : plan -> float
(** Largest [stop] over the plan's faults ([0.] for {!empty}) — after
    this instant the network is fault-free. *)

val validate : n:int -> plan -> unit
(** Raises [Invalid_argument] on an endpoint outside [\[0, n)] (other
    than [any]), a window with [stop < start], or a probability
    outside [\[0, 1\]]. *)

val canonical : plan -> string
(** Canonical serialization (floats rendered losslessly with [%h]);
    structurally equal plans serialize identically.  Feeds
    {!Runenv.Spec.canonical} so fault plans participate in job
    digests. *)

val digest : plan -> string
(** SHA-256 of {!canonical}, 64 hex characters. *)

val pp : Format.formatter -> plan -> unit
(** One-line rendering, e.g.
    [drop[2>*,0..30,p=0.40] crash[1,10..60]] — the repro line chaos
    prints for a shrunk counterexample. *)

(** {1 Runtime injector} *)

type t
(** An instantiated plan: the fault list, the plan-keyed RNG seed and
    one message counter per link.  One injector serves exactly one
    run; {!Net.set_fault} instantiates a fresh one per network so
    streams never leak across runs. *)

val instantiate : plan -> n:int -> t
(** [instantiate plan ~n] sizes the per-link message counters for an
    [n]-node network.  Raises [Invalid_argument] if [n <= 0]. *)

type decision = {
  drop : bool;
  extra_delay : float;
  duplicate : bool;
}

val pass : decision
(** No interference: [{drop = false; extra_delay = 0.; duplicate = false}]. *)

val decide : t -> now:float -> src:int -> dst:int -> decision
(** Link-level verdict for one message sent at [now].  Consumes RNG
    for each matching probabilistic fault, in fault-list order. *)

val crashed : t -> node:int -> now:float -> bool
(** Whether [node] is inside one of its crash windows at [now]. *)
