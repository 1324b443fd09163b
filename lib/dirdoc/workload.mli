(** Synthetic relay populations and per-authority views.

    Substitutes for tornettools + live Tor consensus history (see
    DESIGN.md §2).  A ground-truth population is sampled from
    realistic property distributions; each authority then observes a
    perturbed view of it — a few relays missed, bandwidth-measurement
    jitter, occasional flag disagreement — so that votes differ across
    authorities and the Figure 2 aggregation rules are actually
    exercised. *)

type divergence = {
  missing_prob : float;     (** chance an authority misses a relay *)
  bw_jitter : float;        (** relative stddev of measured bandwidth *)
  flag_flip_prob : float;   (** chance one non-core flag flips *)
  unmeasured_prob : float;  (** chance an authority has no measurement *)
}

val default_divergence : divergence
(** 1% missing, 10% bandwidth jitter, 2% flag flips, 15% unmeasured —
    in line with observed cross-authority vote deltas. *)

val no_divergence : divergence
(** Identical views; used by determinism tests. *)

val relays : rng:Tor_sim.Rng.t -> n:int -> published:float -> Relay.t list
(** [relays ~rng ~n ~published] samples [n] ground-truth relays with
    distinct fingerprints: log-normal-ish bandwidths, ~35% exit
    relays, guard/stable/fast flags correlated with bandwidth, a
    current version mix. *)

val authority_view :
  rng:Tor_sim.Rng.t -> divergence:divergence -> Relay.t list -> Relay.t list
(** One authority's perturbed observation of the ground truth, sorted by
    fingerprint.  The RNG draws run over the ground truth in its given
    order.  Only [flags] and [measured] are perturbed; every other field
    of a view relay, the descriptor digest included, is shared with its
    ground-truth relay. *)

val votes :
  rng:Tor_sim.Rng.t ->
  ?divergence:divergence ->
  keyring:Crypto.Keyring.t ->
  n_authorities:int ->
  n_relays:int ->
  valid_after:float ->
  unit ->
  Vote.t array
(** Generate one vote per authority over a shared ground truth.
    Authority fingerprints come from [keyring]; vote [i] is indexed by
    authority [i].  Digest for digest, the votes equal {!relays}
    followed by one {!authority_view} + [Vote.create] per authority on
    the same [rng], published 600 s before [valid_after]; but the ground
    truth is sorted by fingerprint once per population rather than once
    per view. *)

val authority_nickname : int -> string
(** Stable human-readable names ("moria1", "tor26", ... for the first
    nine, then "auth9", ...). *)

val evolve : rng:Tor_sim.Rng.t -> published:float -> Relay.t list -> Relay.t list
(** One hour of relay churn over a ground-truth population, at the
    live network's hourly scale: ~1.5% of relays leave, ~1.5% join, and
    30% republish their descriptor (fresh published time and jittered
    bandwidth).  Feeding the result
    back in simulates a live network across consensus hours; the
    consdiff savings measurements use exactly this. *)
