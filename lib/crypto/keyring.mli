(** Deterministic key registry for the simulated PKI.

    The paper's protocols use Ed25519/RSA signatures; inside a
    single-process simulation we substitute an HMAC-based scheme whose
    verification consults this registry (see DESIGN.md §2).  Keys are
    derived deterministically from a seed so every experiment is
    reproducible. *)

type t
(** An immutable registry mapping node ids [0 .. n-1] to secret keys. *)

val create : ?seed:string -> n:int -> unit -> t
(** [create ~seed ~n ()] derives [n] secret keys from [seed]
    (default seed ["torpartial-pki"]).  Raises [Invalid_argument]
    if [n <= 0]. *)

val size : t -> int
(** Number of registered nodes. *)

val key : t -> int -> Hmac.key
(** [key t id] is node [id]'s secret key with its HMAC pad states
    prepared once, at {!create}.
    Raises [Invalid_argument] if [id] is out of range. *)

val fingerprint : t -> int -> string
(** [fingerprint t id] is a 40-char uppercase hex identity fingerprint
    for node [id], in the style of Tor authority fingerprints. *)

val mem : t -> int -> bool
(** [mem t id] is [true] iff [id] is a registered node. *)
