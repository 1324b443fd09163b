(** Seeded chaos harness: sampled fault plans, invariant checks,
    counterexample shrinking.

    From one string seed the harness derives [plans] random chaos
    cases — a {!Tor_sim.Fault.plan} (loss windows, partitions, jitter,
    duplication, crashes) plus a behavior assignment (silent,
    equivocating, and crash-recovering authorities) — runs all three
    protocols through each case on the domain {!Pool}, and checks two
    invariants of the paper's partial-synchrony protocol:

    {ul
    {- {e safety}: {!Protocols.Runenv.agreement_holds} must hold
       whenever the number of faulty nodes (silent, equivocating, or
       crash-faulted) is at most ⌊(n−1)/3⌋
       ({!Protocols.Agreement.fault_bound});}
    {- {e liveness}: when every fault window clears before the
       horizon and at most ⌊(n−1)/3⌋ nodes are permanently faulty,
       a majority must decide within 900 seconds of the last fault
       clearing.}}

    Sampling is keyed off [(seed, case index)] alone and the runs
    replay deterministically, so verdicts are identical for every
    [~jobs] value.  When an invariant fails, the case is greedily
    shrunk — faults dropped one at a time, misbehaviors reverted to
    honest one at a time, while the failure still reproduces — and
    reported as the minimal spec plus its digest: a one-line repro. *)

type config = {
  seed : string;
  plans : int;                     (** chaos cases to sample *)
  n_relays : int;
  defense : Defense.Plan.t option;
      (** defense toolbox applied to every case ([None] = undefended);
          flows into {!base_spec} so it participates in every case's
          spec digest *)
}
(** Every case runs {!Protocols.Runenv.Spec.default}'s 9 authorities at
    250 Mbit/s to a 7200 s horizon, and the liveness bound is 900 s. *)

val default_config : config
(** seed ["chaos"], 20 plans, 1000 relays, no defense. *)

val base_spec : config -> Protocols.Runenv.Spec.t
(** The run spec every chaos case of this configuration is a variation
    of: {!Protocols.Runenv.Spec.default} with the config's seed, relay
    count and defense, no behaviors and no fault plan — the campaign
    base the harness (and the bench) hand to {!Campaign.map}. *)

val sample_spec : config -> index:int -> Protocols.Runenv.Spec.t
(** The [index]-th chaos case of a configuration: a run spec whose
    [behaviors] and [fault_plan] come from the case's own RNG stream.
    Pure: depends only on [(config, index)]. *)

(** Outcome of one protocol on one chaos case. *)
type protocol_report = {
  protocol : Job.protocol;
  success : bool;                  (** {!Protocols.Runenv.success} *)
  agreement : bool;                (** {!Protocols.Runenv.agreement_holds} *)
  decided_at_latest : float option;
  dropped : int;                   (** messages lost to faults/expiry *)
  rejected : int;
      (** messages turned away by a defense (admission over-budget,
          rotated-out endpoint); accounted separately from [dropped] *)
}

type verdict = {
  index : int;
  spec_digest : string;            (** {!Protocols.Runenv.Spec.digest} *)
  plan : Tor_sim.Fault.plan;
  behaviors : Protocols.Runenv.behavior array option;
  node_faults : int;               (** distinct faulty/equivocating nodes *)
  permanent_faults : int;          (** silent + equivocating nodes *)
  faults_clear_at : float;
  reports : protocol_report list;  (** current, synchronous, ours *)
  safety_applicable : bool;
  safety_ok : bool;                (** [true] when not applicable *)
  liveness_applicable : bool;
  liveness_ok : bool;              (** [true] when not applicable *)
  stalled_phase : string option;
      (** liveness failures only: the phase the stuck authorities were
          inside, read from the case's own run of the partial-synchrony
          protocol ({!Protocols.Runenv.stalled_phase}); ["decided-late"]
          when every correct authority decided but past the bound *)
  shrunk : Protocols.Runenv.Spec.t option;
      (** minimal failing spec, present iff an invariant failed *)
}

type report = {
  config : config;
  verdicts : verdict list;         (** one per case, in index order *)
  safety_violations : int;
  liveness_violations : int;
}

val check :
  ?config:config ->
  run_protocol:(Job.protocol -> Protocols.Runenv.t -> Protocols.Runenv.report) ->
  jobs:int ->
  unit ->
  report
(** Run the harness.  [run_protocol] is the execution path (the CLI
    passes [Torpartial.Experiments.run]; injected because [exec] sits
    below the protocol drivers in the library graph).  Verdicts are
    independent of [jobs]. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** One line per case; failing cases gain indented shrunk-repro
    lines. *)
