(** SHA-256 (FIPS 180-4).

    This is the digest primitive underneath every commitment in the
    reproduction: vote digests, HMAC, and the simulated signature
    scheme.  It is validated against the NIST short-message vectors and
    a plain OCaml reference model in the test suite.

    The 64-byte block compression is one C kernel: the x86-64 SHA
    extensions when CPUID reports them at program start, a portable C
    loop on every other CPU.  Both give the same digests.  Hashing
    allocates nothing beyond the context and the returned digest. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** [init ()] is a fresh context for an empty message. *)

type state
(** The chaining words of a context that has absorbed whole blocks
    only, and how many bytes that was: a point that hashing can resume
    from any number of times, in any domain.  HMAC keeps one for each
    pad block of a key. *)

val save : ctx -> state
(** [save ctx] is where [ctx] stands.  Raises [Invalid_argument] if
    [ctx] holds part of a block. *)

val resume : ctx -> state -> unit
(** [resume ctx s] puts [ctx] where the context [s] was saved from
    stood, as if it had absorbed the same bytes.  It allocates
    nothing. *)

val feed_bytes : ctx -> bytes -> pos:int -> len:int -> unit
(** [feed_bytes ctx b ~pos ~len] absorbs [len] bytes of [b] starting at
    [pos].  Raises [Invalid_argument] if the range is out of bounds. *)

val feed_string : ctx -> string -> unit
(** [feed_string ctx s] absorbs all of [s]. *)

val finalize : ctx -> string
(** [finalize ctx] pads, finishes, and returns the 32-byte raw digest.
    The context must not be fed again until it is {!reset}. *)

val digest_string : string -> string
(** [digest_string s] is the 32-byte raw SHA-256 digest of [s]. *)

val hex_of_raw : string -> string
(** [hex_of_raw d] renders a raw digest as lowercase hex. *)

val digest_hex : string -> string
(** [digest_hex s] is [hex_of_raw (digest_string s)]. *)
