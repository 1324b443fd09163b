(** Metrics registry of log-bucketed latency histograms.

    The simulator's hot paths (one call per delivered message) must not
    allocate when telemetry is on, and must cost one branch when it is
    off.  Histograms bucket into a fixed [int array] (HDR-style:
    logarithmic buckets, here a fixed geometry shared by every
    histogram so any two can merge), with exact count/sum/min/max kept
    in a float array to avoid boxed-float stores. *)

type t
(** A named collection of histograms. *)

val create : unit -> t

(** {1 Histograms} *)

type histogram
(** Log-bucketed distribution of non-negative values (seconds, in this
    codebase).  Fixed geometry: bucket 0 holds values below 1e-6;
    above that, 16 buckets per decade up to 1e8.  Values outside the
    range clamp to the edge buckets; exact min/max/sum are kept
    regardless, so [max_value] is never a bucket bound. *)

val histogram_create : unit -> histogram
(** A free-standing histogram (not in any registry); the network keeps
    one per (destination, label) and merges them into a registry. *)

val histogram : t -> string -> histogram
(** Find or register a histogram under [name]. *)

val observe : histogram -> float -> unit
(** Record one value.  Allocation-free.  Negative values clamp to 0. *)

val count : histogram -> int
val sum : histogram -> float

val min_value : histogram -> float
(** [nan] when empty. *)

val max_value : histogram -> float
(** [nan] when empty. *)

val mean : histogram -> float
(** [nan] when empty. *)

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0,1]: an upper bound on the q-th
    quantile (the upper edge of the bucket holding it, clamped to the
    exact observed min/max).  [nan] when empty. *)

val merge_histogram : into:histogram -> histogram -> unit
(** Bucket-wise sum plus count/sum/min/max combination; [src] is not
    modified.  Merging is commutative and associative. *)

val render : histogram -> string
(** Canonical text form — count, sum/min/max printed with [%h], and
    every non-empty bucket — used by the determinism tests to compare
    histograms bit for bit. *)

(** {1 Registry-level operations} *)

val find_histogram : t -> string -> histogram option

val histograms : t -> (string * histogram) list
(** Name-sorted. *)
