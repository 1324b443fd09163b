(** The strawman of paper §2.2: "repeatedly run and fail iterations
    ... until a consensus document is successfully generated" — and the
    safety problem that rules it out.

    Each iteration is a full simulated run of the current protocol
    (30 minutes apart, Tor's fallback interval), with the relay lists
    refreshed between iterations as they would be in reality.  An
    authority adopts the document of the {e first} iteration in which
    it collected a majority of signatures.  If an attack makes the
    signature rounds asymmetric — some authorities complete iteration
    1, the rest only succeed in iteration 2 over different votes — two
    different documents both end up carrying majority signatures for
    the same consensus hour.  That is the equivocation hazard of Luo
    et al., which is why the paper insists on a view-based agreement
    layer instead of naive retry. *)

type result = {
  outputs : (int * Dirdoc.Consensus.t) option array;
      (** per authority: (iteration index, adopted document) *)
  iterations_run : int;
  agreement : bool;
      (** all adopting authorities hold the same document *)
  majority_signed_documents : Dirdoc.Consensus.t list;
      (** distinct documents that gathered majority signatures in some
          iteration — more than one is a safety violation *)
}

val run : Runenv.t -> result
(** Run up to 3 rounds of retry.  The
    environment's attack windows apply to iteration 0 only (the attack
    that caused the initial failure); votes are re-generated between
    iterations. *)

val split_attack : unit -> Runenv.attack list
(** The crafted scenario that splits the authorities: throttle
    authorities 5-8 during the two signature rounds ([300 s, 600 s))
    so they miss the signature exchange of iteration 0 while
    authorities 0-4 complete it. *)
