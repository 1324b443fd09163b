(** Campaign evaluation: many runs over one shared vote population.

    A campaign is a batch of run specs sharing every field except the
    three campaign-variable ones — attacks, behaviors, fault plan
    (exactly what the chaos harness and attack sweeps vary).  A {!ctx}
    holds the base spec and its vote population, the dominant setup
    cost.  Both are immutable, so one context serves every worker
    domain.  Each run still builds its own environment with
    {!Protocols.Runenv.of_spec}, and the drivers build its own
    simulator: a run through a context is exactly the run a fresh
    [of_spec] of its spec would give (DESIGN.md §11). *)

type plan = {
  attacks : Protocols.Runenv.attack list;
  behaviors : Protocols.Runenv.behavior array option;
      (** [None] = all honest, as in {!Protocols.Runenv.Spec.t} *)
  fault_plan : Tor_sim.Fault.plan option;
}
(** The campaign-variable fields of one run. *)

val plan_of_spec : Protocols.Runenv.Spec.t -> plan
(** Project a spec onto its campaign-variable fields. *)

val spec_of : base:Protocols.Runenv.Spec.t -> plan -> Protocols.Runenv.Spec.t
(** Reassemble the full spec of a plan.  [spec_of ~base
    (plan_of_spec s) = s] whenever [s] and [base] agree outside the
    variable fields. *)

type ctx
(** A base spec and its vote population; immutable, so safe to share
    across domains. *)

val create : ?votes:Dirdoc.Vote.t array -> Protocols.Runenv.Spec.t -> ctx
(** Build a context for a base spec.  [votes] as in
    {!Protocols.Runenv.of_spec}: pass a cached population to skip vote
    generation.  Runs [of_spec] on the base once, so it raises
    [Invalid_argument] on the inputs [of_spec] rejects. *)

val base_spec : ctx -> Protocols.Runenv.Spec.t

val digest : ctx -> plan -> string
(** {!Protocols.Runenv.Spec.digest} of [spec_of ~base plan]. *)

val env_of : ctx -> plan -> Protocols.Runenv.t
(** The plan's run environment: [of_spec] of [spec_of ~base plan] with
    the context's votes.  Every call builds a new environment.  Raises
    [Invalid_argument] on a plan [of_spec] rejects. *)

val map :
  ?jobs:int ->
  ?votes:Dirdoc.Vote.t array ->
  base:Protocols.Runenv.Spec.t ->
  (ctx -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs ~base f items] builds one context and evaluates
    [f ctx item] for every item with {!Pool.map} on up to [jobs]
    domains (default 1 = sequential, no domains spawned),
    order-preserving.  Results are independent of [jobs] whenever [f]
    is a pure function of its item (the usual case: sample a plan, run
    it, report).  Exceptions propagate as in {!Pool.map}. *)
