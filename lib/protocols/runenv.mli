(** Shared run environment and result types for protocol simulations.

    Every protocol implementation (current v3, Luo et al.'s
    synchronous fix, and the paper's partial-synchrony protocol)
    consumes a [Runenv.t] and produces a [run_result], so the benches
    can sweep bandwidths, relay counts, and attacks uniformly. *)

type attack = {
  node : int;
  start : Tor_sim.Simtime.t;
  stop : Tor_sim.Simtime.t;
  bits_per_sec : float; (** residual bandwidth during the window *)
}

type behavior =
  | Honest
  | Silent        (** sends nothing at all, ever — a dead authority *)
  | Equivocating  (** sends conflicting documents to different peers *)
  | Crashed of { start : Tor_sim.Simtime.t; stop : Tor_sim.Simtime.t }
      (** down during [\[start, stop)], then recovers: the network
          suppresses its traffic during the window (via a compiled
          {!Tor_sim.Fault.Crash} entry) and the protocol drivers defer
          a node crashed at time 0 until its recovery instant. *)

type t = {
  n : int;
  keyring : Crypto.Keyring.t;
  topology : Tor_sim.Topology.t;
  votes : Dirdoc.Vote.t array;       (** input vote of each authority *)
  valid_after : float;
  bandwidth_bits_per_sec : float;    (** base NIC rate, all authorities *)
  attacks : attack list;
  behaviors : behavior array;
  fault_plan : Tor_sim.Fault.plan option; (** injected network faults *)
  defense : Defense.Plan.t option;
      (** installed defenses (admission control, rotation); [None] =
          undefended.  Installed on the network by {!Driver.Make.setup},
          honored by the drivers through {!Driver.Make.awake}. *)
  distribution : Torclient.Distribution.config option;
      (** downstream cache/client tier; [None] = agreement core only *)
  horizon : Tor_sim.Simtime.t;       (** stop simulating at this time *)
  telemetry : bool;
      (** record latency histograms and probes into
          {!run_result.obs}.  Default [false] (zero-cost: the hot paths
          pay a branch, never an allocation).  Telemetry never changes
          simulation outcomes, so it is deliberately NOT part of
          {!Spec.t}: flipping it cannot invalidate existing spec
          digests.  Enable it with a record update:
          [{ env with Runenv.telemetry = true }]. *)
}

val participates : behavior -> bool
(** [false] only for [Silent] — the node never takes part. *)

(** Declarative run specification: the serializable description of an
    environment.  A [Spec.t] carries everything [of_spec] needs to
    rebuild a [t] deterministically, so a spec (or its digest) fully
    identifies a simulation — sweep job keys and chaos repro lines are
    built on {!Spec.digest}. *)
module Spec : sig
  type t = {
    seed : string;
    valid_after : float;
    n : int;                          (** number of authorities *)
    n_relays : int;
    bandwidth_bits_per_sec : float;
    attacks : attack list;
    behaviors : behavior array option; (** [None] = all honest *)
    divergence : Dirdoc.Workload.divergence option;
    fault_plan : Tor_sim.Fault.plan option;
        (** injected network faults; [None] = fault-free.  Participates
            in {!canonical}/{!digest}, so a faulty run never shares a
            digest with a fault-free one. *)
    defense : Defense.Plan.t option;
        (** defenses to install (admission control and/or rotation);
            [None] = undefended.  Participates in
            {!canonical}/{!digest} — introducing the field moved every
            digest once, by design, and distinct defense configs key
            distinct jobs.  NOT campaign-variable: a campaign compares
            fault plans under one fixed defense posture. *)
    distribution : Torclient.Distribution.config option;
        (** downstream distribution tier (caches, cohort sizes,
            schedule/backoff parameters, diff serving); [None] runs the
            agreement core alone.  Participates in
            {!canonical}/{!digest}, so distinct distribution configs
            always key distinct jobs. *)
    horizon : Tor_sim.Simtime.t;
  }

  val default : t
  (** 9 honest authorities, 1000 relays, 250 Mbit/s, no attacks, seed
      ["torpartial"], no distribution tier, horizon 7200 s. *)

  val canonical : t -> string
  (** Canonical serialization (stable across processes and OCaml
      versions; floats rendered losslessly). *)

  val digest : t -> string
  (** SHA-256 of {!canonical} as 64 hex characters.  Structurally
      equal specs always digest identically; any field change changes
      the digest.  This is the job key of the sweep engine. *)

  val validate : t -> unit
  (** Raises [Invalid_argument] ["Runenv.of_spec: ..."] on a malformed
      spec: a negative relay count, a NaN or negative bandwidth
      (infinite is legal), a NaN, infinite or negative horizon or one
      above a week (604,800 s), an attack or crash window that is NaN
      or stops before it starts, a NaN or negative residual attack
      rate, an attack node out of range, two attack windows that
      overlap on one node (touching windows are fine), or a behaviors
      array of the wrong length.
      Invalid fault plans, defenses and distribution configs raise
      their own modules' errors.  Builds nothing.

      A run that never decides keeps its timers firing until the
      horizon: at the bound, ours with four of nine authorities silent
      and 100 relays runs 7.7–9.0 s and peaks at 13 MB on a 2-core
      host, against 0.09 s at the default 7,200 s. *)
end

val of_spec : ?votes:Dirdoc.Vote.t array -> Spec.t -> t
(** Build an environment from a spec: realistic latencies, votes
    generated from the seeded workload (pass [votes] to reuse a
    population across configurations — the generated votes depend
    only on [seed], [n], [n_relays], [valid_after], and
    [divergence], so a cached population is exactly what would have
    been generated; with votes given, building takes about 0.1 ms).
    Runs {!Spec.validate} before building anything, and raises
    [Invalid_argument] ["Runenv.of_spec: ..."] on a votes array of the
    wrong length. *)

(** Outcome of one authority at the end of a run. *)
type authority_result = {
  consensus : Dirdoc.Consensus.t option;  (** document it computed *)
  signatures : int;          (** matching signatures it holds (incl. own) *)
  decided_at : Tor_sim.Simtime.t option;
      (** when it held the document plus a majority of signatures *)
  network_time : Tor_sim.Simtime.t option;
      (** the paper's latency metric: summed per-round network time *)
}

(** Telemetry bundle of one run, present iff {!t.telemetry} was set.
    Like the rest of the result, it is a deterministic function of the
    environment. *)
type obs = {
  metrics : Obs.Metrics.t;
      (** ["time-to-decision"] (seconds until each deciding authority
          decided) and ["delivery-latency/<label>"] (send to handler,
          per message label) histograms. *)
  samples : Obs.Events.sample list;
      (** periodic ["nic-backlog"] (per node) and ["queue-depth"]
          (node 0: the engine's pending events) probes *)
}

type run_result = {
  protocol : string;
  per_authority : authority_result array;
  stats : Tor_sim.Stats.t;
  trace : Tor_sim.Trace.t;
  spans : Obs.Events.span list;
      (** protocol-phase spans, one track per node, recorded in every
          run from each node's final state and sorted as
          {!Obs.Events.spans} sorts them; [complete = false] marks a
          phase the run ended inside *)
  obs : obs option;
}

(** Histograms and probes, shared by the protocol drivers. *)
module Telemetry : sig
  val start :
    t -> net:'m Tor_sim.Net.t -> stop:Tor_sim.Simtime.t -> Obs.Events.t option
  (** [None] unless the environment has [telemetry] set.  Otherwise
      enables the net's latency histograms and installs the periodic
      probes (every 5 sim seconds until [stop]), which sample into the
      returned store.  Call at setup, before the driver schedules any
      event the t = 0 probes tie with. *)

  val finish :
    Obs.Events.t option ->
    net:'m Tor_sim.Net.t ->
    per_authority:authority_result array ->
    obs option
  (** After the run: builds the ["time-to-decision"] histogram from
      [decided_at] and merges the net's latency histograms; [None]
      from a [start] that returned [None]. *)
end

val majority : n:int -> int
(** [n / 2 + 1] — signatures needed for a valid consensus document. *)

val majority_signed : n:int -> run_result -> Dirdoc.Consensus.t option
(** The document of the lowest-id authority holding one with at least
    {!majority} signatures — what a client can download after the run;
    [None] when no authority holds one. *)

val success : t -> run_result -> bool
(** A run succeeds when at least a majority of honest authorities
    produced the same consensus document carrying at least a majority
    of signatures.  Crashed-and-recovered authorities count as honest;
    [Silent] and [Equivocating] ones do not. *)

val agreement_holds : t -> run_result -> bool
(** No two honest (including crash-recovered) authorities decided
    different documents (vacuously true when fewer than two decided) —
    the chaos harness's safety invariant. *)

val success_latency : run_result -> Tor_sim.Simtime.t option
(** Largest [network_time] among deciding authorities — the series
    plotted in Figure 10. *)

val decided_at_latest : run_result -> Tor_sim.Simtime.t option
(** Largest [decided_at] among deciding authorities — the recovery
    time plotted in Figure 11. *)

(** Structured outcome of a full experiment: the agreement verdict
    derived from a {!run_result}, plus the distribution-tier metrics
    when the environment carries a {!Spec.t.distribution} config.
    Every consumer — [torda-sim run]/[distribute], scenarios, the
    bench harness, [Exec.Chaos] — reads this one record instead of
    recomputing verdicts from raw results. *)
type report = {
  protocol : string;
  result : run_result;  (** the raw per-authority results and trace *)
  success : bool;                  (** {!success} *)
  agreement : bool;                (** {!agreement_holds} *)
  success_latency : Tor_sim.Simtime.t option;   (** {!success_latency} *)
  decided_at_latest : Tor_sim.Simtime.t option; (** {!decided_at_latest} *)
  total_bytes : int;    (** authority-tier bytes on the wire *)
  dropped : int;        (** messages lost to attacks or faults *)
  rejected : int;
      (** messages turned away by the installed defenses (admission
          over-budget, rotation quiet periods); [0] when undefended.
          Deliberately not folded into [dropped]. *)
  distribution : Torclient.Distribution.outcome option;
      (** client-tier metrics; [None] when no distribution config *)
}

val report :
  t -> ?distribution:Torclient.Distribution.outcome -> run_result -> report
(** Assemble a {!report} from a raw result, computing the agreement
    verdict and traffic totals with the helpers above. *)

val report_obs : report -> obs option
(** The run's telemetry bundle ([None] when telemetry was off). *)

val time_to_decision : report -> Obs.Metrics.histogram option
(** The ["time-to-decision"] histogram: one observation per authority
    that decided, at its decision time. *)

val delivery_latency : report -> string -> Obs.Metrics.histogram option
(** [delivery_latency r label] — the delivery-latency histogram of one
    message label (e.g. ["vote"], ["consensus-sig"]). *)

val stalled_phase : t -> report -> string option
(** Diagnosis for a failed run: among correct authorities that never
    decided, each one's latest-begun incomplete phase span, reduced to
    the most common phase name (ties alphabetically).  [None] when no
    undecided correct authority has an incomplete span, as when every
    correct authority decided.  Answers with telemetry on or off. *)

val default_valid_after : float
(** POSIX time of the simulated consensus hour (2026-01-01 01:00). *)
