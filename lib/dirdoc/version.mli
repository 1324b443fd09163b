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
(** Parse ["0.4.8.12"] or ["0.4.9.1-alpha"]. *)

val to_string : t -> string

val feed : Crypto.Sink.t -> t -> unit
(** [feed sink v] writes exactly [to_string v] into [sink] without
    allocating the intermediate string. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t
