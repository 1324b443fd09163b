(** Allocation-lean byte sink for document serialization.

    The digest hot path (votes, consensuses) used to render every relay
    line through [Printf.sprintf], allocating a format closure and an
    intermediate string per field.  A [Sink.t] is a growable byte
    buffer with typed feeders that write digits and separators in
    place, so serializing a 10k-relay vote allocates one buffer instead
    of tens of thousands of short-lived strings.

    Sinks are not thread-safe; each domain (or each digest call) uses
    its own.  [clear] lets a caller reuse one sink across documents. *)

type t

val create : unit -> t
(** [create ()] is an empty sink with 256 bytes of initial capacity.
    The buffer grows by doubling. *)

val clear : t -> unit
(** [clear t] empties the sink, keeping its capacity. *)

val length : t -> int
(** [length t] is the number of bytes fed so far. *)

val feed_char : t -> char -> unit
(** [feed_char t c] appends the single byte [c]. *)

val feed_str : t -> string -> unit
(** [feed_str t s] appends all of [s]. *)

val feed_int : t -> int -> unit
(** [feed_int t n] appends the decimal rendering of [n], byte-identical
    to [string_of_int n] (including [min_int]). *)

val feed_fixed : t -> float -> unit
(** [feed_fixed t x] appends [x] with no fractional digits,
    byte-identical to [Printf.sprintf "%.0f" x].  Integral values in
    the exactly-representable range take the in-place digit path;
    anything else (huge, fractional, [-0.], non-finite) falls back to
    [sprintf] for bit-exact fidelity. *)

val contents : t -> string
(** [contents t] is a fresh string of everything fed so far. *)

val digest : t -> string
(** [digest t] is the 32-byte raw SHA-256 of the sink's contents,
    streamed straight from the internal buffer with no copy. *)

val feed_sha256 : t -> Sha256.ctx -> unit
(** [feed_sha256 t ctx] absorbs the sink's contents into [ctx] without
    copying.  Together with [clear] this lets a caller hash a large
    document through one small per-record scratch: fill, flush,
    clear, repeat. *)
