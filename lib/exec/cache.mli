(** Domain-safe memoization keyed by string digests.

    The experiments key shared vote populations by the
    {!Protocols.Runenv.Spec.digest} of their vote-relevant fields, so a
    population that many sweep cells share is generated once, even
    when the requests race on different domains: the second requester
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
