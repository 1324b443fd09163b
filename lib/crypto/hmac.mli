(** HMAC-SHA256 (RFC 2104).

    Used both as a keyed MAC in its own right and as the core of the
    simulated signature scheme ({!Signature}).  Validated against the
    RFC 4231 test vectors in the test suite. *)

type key
(** A key's inner and outer pad states: the SHA-256 chaining words
    after each pad block, which every MAC under the key would otherwise
    compress anew. *)

val key : string -> key
(** [key k] prepares the key [k]: two block compressions, plus one
    hash of [k] if it is longer than the 64-byte block size, per the
    RFC. *)

val mac_with : key -> ?prefix:string -> string -> string
(** [mac_with k ~prefix msg] is the 32-byte raw HMAC-SHA256 of
    [prefix ^ msg] (default [prefix]: empty) under the prepared key
    [k], computed without the concatenation.  Neither pad block is
    compressed again: with a 4-byte prefix, a 60-byte message costs
    three block compressions instead of five. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte raw HMAC-SHA256 of [msg] under the
    key string [key]: {!mac_with} on a key prepared for this one MAC. *)

val mac_hex : key:string -> string -> string
(** [mac_hex ~key msg] is [mac] rendered as lowercase hex. *)

val equal : string -> string -> bool
(** [equal a b] compares two MACs in time independent of where they
    first differ (constant-time for equal lengths). *)
