(** Moving-participants rotation of the active authority subset.

    Moving Participants Turtle Consensus (Nikolaou & van Renesse,
    PAPERS.md) defends consensus against targeted DoS by rotating
    which nodes run the protocol: an attacker who provisioned a flood
    against a fixed set finds its targets rotated out and its budget
    wasted.  This module models the schedule: every [epoch] seconds a
    seeded pseudorandom subset of [out] authorities goes quiet — their
    sends are suppressed and traffic addressed to them is turned away
    (accounted as defense rejects, not fault drops) — while the
    remaining authorities carry the protocol.

    The schedule is a pure function of [(config, n, epoch-number)]:
    nodes are ranked by a seeded digest and the [out] smallest ranks
    form the epoch's quiet set.  No RNG stream, no mutable global
    state, so every consumer computes the same schedule; protocol
    drivers honor it through the [Driver.Make.awake] guard, the network
    through {!Net.set_defense}. *)

type config = {
  seed : string;  (** salts the per-epoch subset draw *)
  out : int;  (** authorities rotated out per epoch *)
  epoch : float;  (** seconds per rotation epoch *)
}

val default : config
(** One authority out per 100 s epoch: relocates an attacker's aim
    faster than a v3 voting round (150 s) without ever keeping one
    authority quiet for a whole fetch round — a rotated-out authority
    is back in time to answer the round's remaining retries, so the
    9-authority directory keeps its 5-signature quorum.  The setting
    where rotation strictly reduces v3 breaks on the 200-plan chaos
    campaign (41 -> 40, stable for epochs in [90, 130]). *)

val validate : n:int -> config -> unit
(** Raises [Invalid_argument] unless [epoch > 0] and
    [0 <= out < n]. *)

val canonical : config -> string
(** Canonical serialization (length-prefixed seed, [%h] floats),
    feeding {!Plan.canonical}. *)

val pp : Format.formatter -> config -> unit

val epoch_of : config -> now:float -> int
(** The rotation epoch containing [now] (epoch [e] spans
    [e * epoch <= now < (e+1) * epoch]). *)

val out_nodes : config -> n:int -> epoch:int -> int list
(** The epoch's quiet subset, ascending node ids; [out] distinct
    nodes drawn uniformly per epoch. *)

val quiet_at : config -> n:int -> node:int -> now:float -> bool
(** Pure membership test: is [node] rotated out at [now]?  Allocates;
    use an instantiated {!t} on hot paths. *)

(** {1 Runtime} *)

type t
(** Memoized membership for the hot-path checks.  An instance caches
    the current epoch's subset. *)

val instantiate : config -> n:int -> t
(** Validates the config and allocates the cache. *)

val quiet : t -> node:int -> now:float -> bool
(** Memoized {!quiet_at}; allocation-free once the epoch's subset is
    cached. *)
