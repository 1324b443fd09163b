(** The downstream consensus distribution tier: directory caches and
    client cohorts.

    The paper's headline harm is not at the 9 authorities but below
    them — when the directory protocol halts for three hours, ~2M
    clients' consensuses expire and Tor is down, and recovery ends
    with every client refetching at once.  This module models that
    fetch path: directory-cache nodes that download the signed
    consensus from the authorities and serve a client population,
    client fetch schedules staggered across the valid-after window,
    retry with exponential backoff on failure, and consensus-diff
    serving ({!Consdiff}) so steady-state refreshes ship deltas
    instead of full documents.

    A literal million-client event loop would be wasteful, so clients
    are modelled as {e cohorts}: a cache-attached aggregate that
    expands one fetch-schedule sample into a batched event for all of
    its members.  A 1M-client flash crowd after a 3-hour halt runs in
    a few thousand simulator events — milliseconds of wall clock —
    while preserving the dynamics that matter: cache serialization,
    queue-wait timeouts, and the retry storm.  Runs are fully
    deterministic in the configuration (DESIGN.md §9). *)

type config = {
  clients : int;              (** total client population *)
  caches : int;               (** directory-cache nodes *)
  halt : float;
      (** seconds the directory protocol had been down before the
          consensus finally appeared: clients have been retrying this
          long and their backoff is already wound up.  [0.] models
          steady state (an ordinary hourly refresh). *)
  diffs : bool;               (** serve consensus diffs when possible *)
}
(** The rest of the tier is fixed: 64 cohorts (client aggregates) per
    cache; first fetches spread uniformly over 1800 s (dir-spec clients
    stagger inside the valid-after interval); a failed attempt retries
    after 60 s, doubling up to 600 s; a client abandons an attempt when
    the cache's queue delay exceeds 30 s (the timeout that turns a
    flash crowd into a retry storm); each cache serves at 1 Gbit/s. *)

val default_config : config
(** 1M clients on 16 caches, steady state ([halt = 0]), diffs on. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on a non-positive client or cache count,
    more than 10^9 clients (1,000x the paper's crowd; the bound keeps
    the client-weighted byte and attempt counts inside [int]), or a
    negative, NaN or infinite [halt]. *)

val canonical_config : config -> string
(** Canonical serialization (lossless floats, the fixed parameters
    included), embedded in {!Protocols.Runenv.Spec.canonical} so
    distribution settings participate in spec digests. *)

(** Metrics of one distribution run.  Times are in seconds {e after}
    [available_at] (the instant the signed consensus reached the
    caches' upstream). *)
type outcome = {
  clients : int;
  caches : int;
  cohorts : int;
  available_at : float;       (** when the document became fetchable *)
  time_to_90pct_fresh : float option;
      (** when 90% of clients held the new consensus; [None] if never
          reached inside the horizon *)
  time_to_full_recovery : float option;
      (** when every client held it *)
  bytes_served : int;         (** total bytes off all caches *)
  bytes_per_cache : float;    (** mean bytes served per cache *)
  bytes_per_cache_max : int;  (** hottest cache *)
  full_fetches : int;         (** clients served a full document *)
  diff_fetches : int;         (** clients served a consensus diff *)
  failed_attempts : int;
      (** client-weighted attempts that timed out or found no document *)
}

val run :
  config ->
  available_at:float ->
  full_bytes:int ->
  diff_bytes:int option ->
  horizon:float ->
  outcome
(** Simulate the distribution of one consensus.  The document becomes
    fetchable at [available_at]; cohorts start attempting at
    [available_at -. halt] (clamped to 0), spread over the fetch
    window, so a halt arrives with backoff already wound up —
    the flash crowd.  [full_bytes] is the serialized document size;
    [diff_bytes = Some d] (with [config.diffs]) serves [d]-byte diffs
    instead.  Events past [horizon] do not run; cohorts still fetching
    then are reported as not recovered.  Deterministic: the RNG is
    seeded from {!canonical_config}.  Raises
    [Invalid_argument] on an invalid config or non-positive
    [full_bytes]. *)
