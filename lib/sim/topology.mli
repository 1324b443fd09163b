(** Inter-authority latency matrices.

    The paper derives realistic latencies among the 9 authorities with
    tornettools; we substitute a seeded generator whose distribution
    matches observed inter-authority RTT/2 (tens of milliseconds,
    long-tailed), plus a uniform builder for controlled tests. *)

type t
(** A symmetric latency function over [n] nodes. *)

val n : t -> int

val latency : t -> src:int -> dst:int -> Simtime.t
(** One-way propagation delay.  [latency ~src ~dst = latency ~dst ~src];
    self-latency is zero.  Raises [Invalid_argument] out of range. *)

val uniform : n:int -> latency:Simtime.t -> t
(** Every distinct pair has the same delay. *)

val realistic : n:int -> rng:Rng.t -> t
(** Seeded long-tailed latencies: Gaussian around 45 ms (σ = 25 ms)
    clamped to [\[5 ms, 150 ms\]], symmetric. *)

val of_matrix : Simtime.t array array -> t
(** Explicit matrix; must be square and non-negative, and is
    symmetrized by taking the max of the two directions. *)
