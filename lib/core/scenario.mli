(** Scenario files: a small text format describing a simulation run,
    standing in for the tornettools configuration stage of the paper's
    pipeline.  One directive per line; [#] starts a comment.

    {v
    # five-minute flood on a majority of the authorities
    protocol current
    relays 8000
    bandwidth 250
    seed demo
    flood-majority 0 300 0.5
    behavior 3 silent
    attack 7 100 200 1.0
    v}

    Directives:
    - [protocol current|synchronous|ours]
    - [relays N], [bandwidth MBIT], [seed STR], [horizon SECONDS]
    - [behavior NODE silent|equivocating|honest]
    - [attack NODE START STOP RESIDUAL_MBIT] — one bandwidth window
    - [flood-majority START STOP RESIDUAL_MBIT] — the paper's attack
    - [knockout-majority START STOP] — the Figure 11 attack
    - [clients N], [caches N], [halt SECONDS], [diffs on|off] —
      enable the downstream {!Torclient.Distribution} tier; any one of
      these switches it on with defaults for the rest
    - [defense none|admission|rotation|both] — a {!Defense.Plan}
      preset; or spell the members out with
      [defense admission:RATE:BURST:BACKLOG] (per-source token
      buckets: RATE msgs/s sustained, BURST msgs instantly, BACKLOG
      deferred before rejects) and [defense rotate:OUT:EPOCH[:SEED]]
      (OUT authorities rotated out per EPOCH-second epoch).  Later
      [defense] directives merge member-wise, so an [admission:…]
      line composes with a [rotate:…] line

    Each directive is one step over the scenario: a later setting
    replaces an earlier one, and attack windows accumulate in
    directive order.  The [torda-sim run], [log] and [distribute]
    flags are directives too ({!of_directives}). *)

type t = {
  protocol : Experiments.protocol;
  spec : Protocols.Runenv.Spec.t;
}

val parse : string -> (t, string) result
(** Parse scenario text and check the spec with
    {!Protocols.Runenv.Spec.validate}; builds nothing.  An error in a
    directive carries its line number. *)

val of_directives : string list list -> (t, string) result
(** The same fold over directives given as word lists, e.g.
    [[["relays"; "2000"]; ["flood-majority"; "0"; "300"; "0.5"]]].
    A word may contain spaces. *)

val run : t -> Protocols.Runenv.report
(** Build the scenario's environment with {!Protocols.Runenv.of_spec}
    and execute its protocol via {!Experiments.run}, the same path the
    CLI, benches, and sweep pool use; the report carries distribution
    metrics when the scenario enabled the client tier. *)

val default_text : string
(** A commented example scenario (the Figure 1 attack), used by the
    CLI's [--example] flag and the tests. *)
