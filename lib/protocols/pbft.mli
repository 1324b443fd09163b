(** Single-shot PBFT-style agreement — the third instantiation of the
    paper's pluggable agreement sub-protocol (§5.2.2 names PBFT,
    Tendermint, and HotStuff).

    Classic three-phase structure per view with a rotating primary:
    PRE-PREPARE from the primary, then all-to-all PREPARE, then
    all-to-all COMMIT; [2f+1] matching prepares form a prepared
    certificate (the lock), [2f+1] commits decide.  On timeout,
    replicas broadcast VIEW-CHANGE carrying their prepared
    certificate; a quorum advances the view and obliges the new
    primary to re-propose the highest certified value — PBFT's
    safety-across-views argument in single-shot form.

    Good case: 3 message rounds plus the proposal, all-to-all in both
    vote phases — the quadratic communication that HotStuff's
    leader-relayed votes were designed to remove (visible in the
    agreement-traffic ablation).

    The interface is {!Agreement.S}; the core protocol functor runs
    unchanged over this engine. *)

include Agreement.S
