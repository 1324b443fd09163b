(** Exit-policy summaries (dir-spec "p" lines).

    A summary is ["accept"] or ["reject"] plus a sorted list of
    disjoint port ranges, e.g. ["accept 80,443,8000-8100"].  Figure 2
    breaks aggregation ties by picking the lexicographically larger
    rendered summary, so rendering is canonical (ranges normalized,
    merged, and sorted). *)

type policy = Accept | Reject

type t

val make : policy -> (int * int) list -> t
(** [make p ranges] normalizes [ranges] (each [lo, hi] with
    [1 <= lo <= hi <= 65535]): sorts, merges overlaps and adjacency.
    Raises [Invalid_argument] on an out-of-range port or an empty
    list. *)

val accept_all : t
val reject_all : t

val policy : t -> policy
val ranges : t -> (int * int) list

val to_string : t -> string
(** The canonical summary.  It is built once, when the value is made,
    and every call returns that one string. *)

val of_string : string -> (t, string) result
(** Parse a summary such as ["accept 80,443,8000-8100"].  Each port is
    plain decimal digits: no sign, base prefix or underscore. *)

val compare : t -> t -> int
(** Lexicographic on the canonical rendering — the Figure 2 tie-break
    order. *)

val equal : t -> t -> bool
val max : t -> t -> t
