(** Single-shot, view-based BFT agreement under partial synchrony
    (two-phase HotStuff in the style of Jolteon, the variant the
    paper's Rust prototype builds on).

    This is the pluggable agreement sub-protocol of Section 5.2.2: it
    agrees on one externally valid value of type ['v] among [n] nodes
    with [f = (n-1)/3] faults and quorum [n - f].  Good-case round
    count is 5 (propose, vote, QC announce, vote, commit), matching
    Appendix B.2's Table 2.

    Structure per view [v] (leader [v mod n]):
    + the leader proposes a value — its own input, or the value of the
      highest QC carried by the timeout certificate that ended view
      [v - 1] (re-proposal preserves safety);
    + nodes vote in phase One if the proposal is externally valid and
      compatible with their lock (same digest, or justified by a
      higher QC than the lock);
    + a phase-One quorum certificate locks the value and triggers
      phase-Two votes; a phase-Two certificate commits it;
    + on view timeout, nodes broadcast TIMEOUT carrying their highest
      QC (and its value); a quorum of timeouts for the same view forms
      a certificate that advances everyone to the next view.  Nodes
      adopt the highest view they hear a timeout for, which keeps
      views synchronized after GST.

    The module is transport-agnostic: the host wires
    {!Agreement.callbacks} to its network and clock, calls [handle] on
    every delivered message, and learns the decision through [decide].
    Nodes that already decided re-send the commit certificate to any
    node they still hear timeouts from, so a decision propagates even
    if the deciding leader crashed mid-broadcast. *)

include Agreement.S
