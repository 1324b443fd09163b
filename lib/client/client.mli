(** A minimal Tor client's directory state machine.

    Holds the most recent verified consensus and answers the question
    the whole paper turns on: {e can this client still build circuits
    right now?}  A client goes dark once its newest verified document
    is more than three hours old — which is exactly what a sustained
    hourly DDoS on the directory protocol causes. *)

type t

val create : keyring:Crypto.Keyring.t -> n_authorities:int -> t

val offer : t -> now:float -> Directory.signed_consensus -> (unit, string) result
(** Present a downloaded document.  It is adopted iff it verifies
    ({!Directory.verify}), is not expired at [now], and is newer than
    what the client already holds; otherwise an explanatory error is
    returned and the state is unchanged. *)

val status : t -> now:float -> Directory.freshness option
(** Freshness of the held document ([None] if bootstrapping). *)

val can_build_circuits : t -> now:float -> bool
(** The client holds a usable (non-expired) consensus: the condition
    for building circuits at all.  Circuit construction itself is not
    modelled. *)
