(** Simulated time.

    Time is a float count of seconds since the start of the simulation.
    The directory protocol nominally starts on the hour, so formatting
    helpers render offsets from a fictional "Jan 01 01:00:00" epoch to
    mirror Tor's log timestamps (Figure 1). *)

type t = float

val zero : t
val minutes : float -> t
val ms : float -> t

val add : t -> t -> t
val ( +. ) : t -> t -> t

val is_infinite : t -> bool

val never : t
(** A time after every event ([infinity]); the result of a transfer
    that can never complete (zero-rate NIC with no future rate). *)

val pp : Format.formatter -> t -> unit
(** Renders as [mm:ss.mmm] elapsed simulation time. *)

val pp_tor_log : Format.formatter -> t -> unit
(** Renders as a Tor-style wall-clock timestamp
    ["Jan 01 01:24:30.011"], anchored at 01:00:00. *)
