(** Simulated digital signatures over the {!Keyring} PKI.

    Semantics match a real scheme from the protocols' point of view:
    only the holder of node [i]'s secret can produce a signature that
    verifies for signer [i], and any tampering with the message or the
    claimed signer makes verification fail.  Wire size is modelled as
    κ = 64 bytes (Ed25519 signature size), the constant used in the
    paper's Table 1 complexity accounting. *)

type t = { signer : int; tag : string }
(** A signature: the claimed signer id and an HMAC tag over the
    message under the signer's secret. *)

val sign : Keyring.t -> signer:int -> string -> t
(** [sign ring ~signer msg] signs [msg] as node [signer]. *)

val verify : Keyring.t -> t -> string -> bool
(** [verify ring sg msg] checks that [sg] is a valid signature on
    [msg] by [sg.signer].  Returns [false] (never raises) for unknown
    signers or corrupted tags. *)

val certifies : Keyring.t -> quorum:int -> string -> t list -> bool
(** [certifies ring ~quorum msg sigs] is the certificate rule every
    multi-signature proof is checked with: at least [quorum]
    signatures, no signer twice, and every signature verifying on
    [msg]. *)

val forge : signer:int -> string -> t
(** [forge ~signer msg] builds a syntactically well-formed but invalid
    signature; used by Byzantine-behaviour tests. *)

val wire_size : int
(** Modelled size on the simulated wire: 64 bytes (κ in the paper). *)

val equal : t -> t -> bool
