(** Single-shot Tendermint-style agreement under partial synchrony —
    the second instantiation of the paper's pluggable agreement
    sub-protocol (§5.2.2 names PBFT, Tendermint, and HotStuff as
    interchangeable choices).

    Per round (view) with a rotating proposer: PROPOSE, then all-to-all
    PREVOTE, then all-to-all PRECOMMIT.  A quorum (2f+1) of prevotes
    for a value is a {e polka}: nodes lock on it and precommit; a
    quorum of precommits decides.  Nil votes and per-phase timeouts
    drive round changes; a proposer carrying a polka from an earlier
    round re-proposes that value with the polka as evidence, which is
    what preserves safety across rounds.  Compared to HotStuff the
    good case is one phase shorter but votes are broadcast all-to-all,
    trading O(n) leader links for O(n²) messages — visible in the
    agreement-traffic ablation.

    The interface is {!Agreement.S}: the core protocol functor runs
    over this engine unchanged. *)

include Agreement.S
