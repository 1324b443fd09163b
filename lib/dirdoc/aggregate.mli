(** Vote aggregation — the deterministic algorithm of Figure 2.

    Every authority runs this locally on the set of votes it holds;
    the directory protocol's job is to make that set identical
    everywhere.  The rules, per relay:

    - included iff listed in a strict majority of the aggregated votes,
      [n_votes / 2 + 1] of them (see DESIGN.md §4.2 on the threshold
      reading);
    - nickname from the listing vote with the largest authority id;
    - each flag set iff a strict majority of listing votes assert it
      (tie ⇒ unset);
    - version and protocols by popular vote, ties to the largest;
    - exit policy by popular vote, ties to the lexicographically
      larger summary;
    - bandwidth is the low-median (Tor's median: the element at index
      [(len - 1) / 2] of the sorted values) of the measured values,
      falling back to the low-median of advertised values when no vote
      measured the relay. *)

module Memo : sig
  type t
  (** A cache of aggregation results, keyed by the (content-addressed)
      set of vote digests and [valid_after], and of the population's
      equivocation variants ({!variant}).  One memo serves one vote
      population: every authority of every run over that population
      that aggregates the same vote set shares one computation.  A
      memo is domain-safe, and it lives as long as its population. *)

  val of_population : Vote.t array -> t
  (** The memo of a vote population, found by the array's physical
      identity: every call with one array returns the same memo, and a
      distinct array (even with equal votes) gets its own.  The memo
      and its documents are collected with the array. *)
end

val consensus : valid_after:float -> votes:Vote.t list -> Consensus.t
(** Aggregate whole votes into a consensus document.  Votes must come
    from distinct authorities.  The result is independent of the order
    of [votes]. *)

val consensus_memo : memo:Memo.t -> valid_after:float -> votes:Vote.t list -> Consensus.t
(** {!consensus} through a cache: a repeated (vote set, [valid_after])
    input returns the previously computed document instead of
    re-running the merge.  Two domains asking for one new key may both
    merge, but the first document stored wins, so every caller gets
    the same physical document for a key. *)

val variant : memo:Memo.t -> int -> Vote.t
(** [variant ~memo id] is the second, conflicting vote that authority
    [id] of the memo's population sends when it equivocates: its vote
    without the first relay, as authority [id].  The memo builds it on
    first use and keeps it, so every run over the population, in any
    domain, gets the same physical vote; as in {!consensus_memo}, the
    first one stored wins.  Raises [Invalid_argument] if [id] is not an
    index of the population. *)
