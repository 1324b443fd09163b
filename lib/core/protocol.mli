(** The paper's directory protocol: interactive consistency under
    partial synchrony (Section 5.2), assembled from the three
    sub-protocols.

    + {b Dissemination} — every authority broadcasts its vote as a
      DOCUMENT; at each view start, authorities that hold at least
      [n - f] documents send a PROPOSAL to the view's leader, which
      assembles the digest vector and proof [(H, π)]
      ({!Dissemination}).
    + {b Agreement} — single-shot HotStuff ({!Protocols.Hotstuff})
      agrees on one externally valid [(H, π)].
    + {b Aggregation} — authorities fetch any document whose digest
      appears in the agreed vector but which they do not hold (at
      least one correct node has it, by the Present-proof rule),
      aggregate the covered votes with the deployed Figure 2
      algorithm, and exchange consensus signatures.

    Unlike the two baselines there is no lock-step schedule: the
    protocol tolerates arbitrary delays while documents are in flight
    and needs partial synchrony only to finish agreement — which is
    why it survives the Section 4 DDoS and the low-bandwidth settings
    of Figure 10. *)

val name : string

type params = {
  doc_timeout : Tor_sim.Simtime.t;
      (** Δ of the dissemination wait rule: after this, [n - f]
          documents suffice to propose (default 150 s). *)
  view_timeout : Tor_sim.Simtime.t;  (** pacemaker timeout (default 5 s) *)
}
(** During aggregation a node re-requests missing documents, and then
    missing signatures, every 10 s. *)

val default_params : params

val run : ?params:params -> Protocols.Runenv.t -> Protocols.Runenv.run_result
(** Simulate one consensus instance.  [network_time] in the result is
    simply the decision time: the protocol has no lock-step rounds
    (Section 6.2's measurement convention). *)

type detailed = {
  result : Protocols.Runenv.run_result;
  vectors : Crypto.Digest32.t Icps.vector array;
      (** per-authority agreed digest vector ([[||]] for authorities
          that never decided) *)
  decided_views : int option array;  (** agreement view of each decision *)
}

val run_detailed : ?params:params -> Protocols.Runenv.t -> detailed
(** Like {!run} but also exposes the agreed vectors and views, which
    the Definition 5.1 property tests inspect. *)

(** The protocol is a functor over the agreement engine (paper
    §5.2.2: any view-based consensus protocol fits).  [run] above is
    {!Over_hotstuff} under the plain name; {!Over_tendermint}
    exercises the same dissemination and aggregation sub-protocols
    over Tendermint-style agreement, and the ablation bench compares
    the two. *)
module Make (A : Protocols.Agreement.S) : sig
  val name : string
  val run : ?params:params -> Protocols.Runenv.t -> Protocols.Runenv.run_result
  val run_detailed : ?params:params -> Protocols.Runenv.t -> detailed
end

module Over_hotstuff : sig
  val name : string
  val run : ?params:params -> Protocols.Runenv.t -> Protocols.Runenv.run_result
  val run_detailed : ?params:params -> Protocols.Runenv.t -> detailed
end

module Over_tendermint : sig
  val name : string
  val run : ?params:params -> Protocols.Runenv.t -> Protocols.Runenv.run_result
  val run_detailed : ?params:params -> Protocols.Runenv.t -> detailed
end

module Over_pbft : sig
  val name : string
  val run : ?params:params -> Protocols.Runenv.t -> Protocols.Runenv.run_result
  val run_detailed : ?params:params -> Protocols.Runenv.t -> detailed
end
