(** Network-interface bandwidth model.

    A NIC serializes transfers FIFO at a piecewise-constant rate.  Rate
    breakpoints model DDoS windows: attack traffic consumes capacity,
    leaving the configured residual rate (the model Jansen et al. and
    the paper use inside Shadow).  A rate of zero stalls transfers
    until the next breakpoint — this is how a full knockout (Figure 11)
    is expressed; queued bytes drain when the window ends, matching
    TCP's retransmission behaviour. *)

type t

val create : bits_per_sec:float -> unit -> t
(** [create ~bits_per_sec ()] is a NIC with a constant base rate.
    Raises [Invalid_argument] on a negative rate. *)

val set_rate : t -> from:Simtime.t -> bits_per_sec:float -> unit
(** [set_rate t ~from ~bits_per_sec] appends a rate breakpoint.  A NIC
    holds a handful (two per attack window), so each append copies the
    schedule.  Raises [Invalid_argument] on a negative rate or a
    breakpoint before the last one (or before time 0). *)

val limit_window : t -> start:Simtime.t -> stop:Simtime.t -> bits_per_sec:float -> unit
(** [limit_window t ~start ~stop ~bits_per_sec] caps the rate during
    [\[start, stop)] and restores the prior rate at [stop]. *)

val rate_at : t -> Simtime.t -> float
(** Effective rate (bits per second) at a given time. *)

val busy_until : t -> Simtime.t
(** Time at which the FIFO queue drains under the current schedule. *)

val reserve : t -> now:Simtime.t -> bytes:int -> Simtime.t
(** [reserve t ~now ~bytes] appends a transfer of [bytes] to the FIFO
    queue and returns its completion time ({!Simtime.never} if the
    rate is zero forever after).  Raises [Invalid_argument] on
    negative [bytes]. *)

val transfer_time : t -> now:Simtime.t -> bytes:int -> Simtime.t
(** Like {!reserve} but without committing the reservation; used by
    planners and tests. *)
