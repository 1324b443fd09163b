(** Tor software versions ("0.4.8.12", optionally with a status tag
    like "-alpha").

    Consensus aggregation selects the largest version among the
    popular-vote winners (Figure 2), so ordering must match Tor's
    version-spec: numeric component-wise, with a tagged version
    ordering before its untagged release. *)

type t

val make : ?tag:string -> int -> int -> int -> int -> t
(** [make major minor micro patch].  Components must be
    non-negative. *)

val of_string : string -> (t, string) result
(** Parse ["0.4.8.12"] or ["0.4.9.1-alpha"].  Each component is plain
    decimal digits: no sign, base prefix or underscore. *)

val to_string : t -> string
(** The canonical text, e.g. ["0.4.9.1-alpha"].  It is built once, when
    the value is made, and every call returns that one string. *)

val compare : t -> t -> int
val equal : t -> t -> bool
