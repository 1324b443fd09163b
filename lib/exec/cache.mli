(** Domain-safe memoization keyed by string digests.

    The sweep engine keys simulation results (and shared vote
    populations) by {!Protocols.Runenv.Spec.digest}, so a cell that
    appears twice in a sweep — e.g. a bandwidth the Figure 7 binary
    search probes again — is only ever simulated once, even when the
    two requests race on different domains: the second requester
    blocks until the first finishes and then reads its result. *)

type 'v t

val create : unit -> 'v t
(** An empty cache; entries are never evicted. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [find_or_compute t ~key f] returns the cached value for [key],
    or runs [f ()] (at most once per key across all domains) and
    caches it.  If [f] raises, nothing is cached, the exception
    propagates to the caller that ran [f], and any waiting domain
    retries the computation itself. *)

val find_opt : 'v t -> string -> 'v option
(** Completed entry for [key], if any (never blocks). *)

val length : 'v t -> int
(** Number of completed entries. *)
