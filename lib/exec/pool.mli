(** Domain pool.

    [map ~jobs f items] applies [f] to every item across [jobs]
    OCaml 5 domains and returns the results in input order, so the
    output is independent of worker count and scheduling.  Workers
    claim items one at a time from a shared atomic index.  The calling
    domain is one of the workers, so [map] spawns
    [min jobs (List.length items) - 1] domains: none for [jobs = 1].

    If any [f item] raises, the remaining items still run, and the
    exception of the {e lowest-index} failing item is re-raised (with
    its backtrace) after all workers have drained — deterministic
    error reporting under parallelism.

    [f] must be safe to call from multiple domains at once: jobs that
    only touch their own state (as every simulation job here does —
    each builds its environment from its own spec) qualify; shared
    caches must be domain-safe like {!Cache}. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Raises [Invalid_argument] when [jobs < 1]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] style
    "auto" settings should use. *)
