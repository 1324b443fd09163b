(** Relay status flags (dir-spec §3.4.1).

    A vote asserts a set of flags per relay; consensus aggregation sets
    a flag iff a strict majority of voting authorities assert it (a tie
    leaves the flag unset — Figure 2 of the paper). *)

type flag =
  | Authority
  | BadExit
  | Exit
  | Fast
  | Guard
  | HSDir
  | MiddleOnly
  | NoEdConsensus
  | Running
  | Stable
  | StaleDesc
  | V2Dir
  | Valid

type t
(** An immutable set of flags. *)

val empty : t
val of_list : flag list -> t

val add : flag -> t -> t
val remove : flag -> t -> t
val mem : flag -> t -> bool
val cardinal : t -> int
val equal : t -> t -> bool

val all : flag list
(** Every known flag, in dir-spec order. *)

val majority : t array -> int -> t
(** [majority sets k] holds each flag that a strict majority of
    [sets.(0)] to [sets.(k - 1)] hold; a tie leaves it unset (the
    Figure 2 flag rule). *)

val to_string : t -> string
(** Space-separated dir-spec rendering, e.g. ["Fast Running Valid"]. *)

val feed : Crypto.Sink.t -> t -> unit
(** [feed sink t] writes exactly [to_string t] into [sink] without
    allocating the intermediate string. *)

val of_string : string -> (t, string) result
(** Parse a space-separated flag list; fails on unknown flags. *)
