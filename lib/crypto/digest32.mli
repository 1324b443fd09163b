(** Typed 32-byte digests.

    A thin abstraction over raw SHA-256 output so that protocol code
    cannot confuse digests with arbitrary strings, and so that the wire
    size of a digest is accounted for in one place. *)

type t
(** A 32-byte digest. Structural equality and ordering follow the raw
    bytes, so [t] can key [Map]s and [Hashtbl]s. *)

val of_string : string -> t
(** [of_string s] digests [s] with SHA-256. *)

val of_raw : string -> t
(** [of_raw d] wraps an existing 32-byte raw digest.
    Raises [Invalid_argument] if [d] is not exactly 32 bytes. *)

val raw : t -> string
(** [raw t] is the underlying 32 bytes. *)

val hex : t -> string
(** [hex t] is the digest as 64 lowercase hex characters. *)

val short_hex : t -> string
(** [short_hex t] is the first 10 hex characters, for log lines
    (mirrors Tor's abbreviated fingerprints). *)

val equal : t -> t -> bool

val wire_size : int
(** Bytes a digest occupies on the simulated wire (32). *)
