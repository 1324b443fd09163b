(** Amortized campaign evaluation: many runs, one simulator.

    A campaign is a batch of run specs sharing every field except the
    three campaign-variable ones — attacks, behaviors, fault plan
    (exactly what the chaos harness and attack sweeps vary).  A
    {!ctx} holds, per worker: the base environment (keyring, topology,
    vote population — the dominant setup cost) and a private
    {!Protocols.Runenv.Arena} (so successive runs reset and reuse the
    same simulator heaps instead of reallocating them).

    None of the sharing changes results: environments come from
    {!Protocols.Runenv.vary} (validated like [of_spec]), and arena
    reuse is pinned bit-identical to fresh construction by the test
    suite. *)

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
(** Per-worker evaluation context.  Holds an arena, so it is
    single-domain by construction: {!map} builds one per worker and
    never shares them. *)

val create : ?votes:Dirdoc.Vote.t array -> Protocols.Runenv.Spec.t -> ctx
(** Build a context for a base spec.  [votes] as in
    {!Protocols.Runenv.of_spec}: pass a cached population to skip vote
    generation.  Raises [Invalid_argument] on the inputs [of_spec]
    rejects. *)

val base_spec : ctx -> Protocols.Runenv.Spec.t

val digest : ctx -> plan -> string
(** {!Protocols.Runenv.Spec.digest} of [spec_of ~base plan]. *)

val env_of : ?telemetry:bool -> ctx -> plan -> Protocols.Runenv.t
(** The plan's run environment: {!Protocols.Runenv.vary} over the
    context's base environment, sharing its votes/keyring/topology and
    its arena.  Running a protocol on consecutive [env_of] results
    reuses one resettable simulator per driver.  [telemetry] (default
    [false]) sets {!Protocols.Runenv.t.telemetry} on the result;
    neither it nor the shared arena changes simulation outcomes. *)

val map :
  ?jobs:int ->
  ?votes:Dirdoc.Vote.t array ->
  base:Protocols.Runenv.Spec.t ->
  (ctx -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs ~base f items] evaluates [f ctx item] for every item,
    order-preserving, on up to [jobs] domains (default 1 =
    sequential, no domains spawned).  Items are split into contiguous
    chunks, one fresh context per chunk, so each context stays on one
    domain and sees items in input order.  Results are independent of
    [jobs] whenever [f] is a pure function of its item (the usual
    case: sample a plan, run it, report).  Exceptions propagate as in
    {!Pool.map}. *)
