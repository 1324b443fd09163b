(** Consensus documents — the output of the directory protocol.

    An entry carries the aggregated properties of one relay; the
    document carries the validity window Tor clients enforce (stale
    after 1 h, invalid after 3 h — the rule that turns repeated
    consensus failures into a network outage). *)

type entry = {
  fingerprint : string;
  nickname : string;
  flags : Flags.t;
  version : Version.t;
  protocols : string;
  bandwidth : int;
  exit_policy : Exit_policy.t;
}

type t = private {
  valid_after : float;
  fresh_until : float;
  valid_until : float;
  n_votes : int;          (** votes aggregated into this document *)
  entries : entry array;  (** sorted by fingerprint *)
  digest : Crypto.Digest32.t;
  signing_payload : string;
      (** cached domain-tagged digest — every authority signs the same
          payload, so it is derived once at construction *)
}

val create : valid_after:float -> n_votes:int -> entries:entry list -> t
(** Sorts entries, rejects duplicate fingerprints, derives the
    validity window ([+1 h] fresh, [+3 h] valid) and digest. *)

val n_entries : t -> int
val find : t -> fingerprint:string -> entry option
val digest : t -> Crypto.Digest32.t
val equal : t -> t -> bool

val is_fresh : t -> now:float -> bool
(** Clients should still use the document. *)

val is_valid : t -> now:float -> bool
(** Document not yet past the 3-hour hard deadline. *)

val serialize : t -> string
(** Dir-spec-style text rendering: {!feed_header}, {!feed_entry} for
    every entry in order, then ["directory-footer\n"]. *)

val text_size : t -> int
(** [String.length (serialize t)], rendering one entry at a time into
    a scratch sink instead of building the text. *)

val feed_header : Crypto.Sink.t -> valid_after:float -> n_votes:int -> unit
(** Writes the header lines of a document with these fields (the
    validity window follows from [valid_after]), each ending in a
    newline, exactly as {!serialize} writes them. *)

val feed_entry : Crypto.Sink.t -> entry -> unit
(** Writes an entry's six lines (["r"], ["s"], ["v"], ["pr"], ["w"],
    ["p"]), each ending in a newline, exactly as {!serialize} writes
    them. *)

val signing_payload : t -> string
(** The byte string authorities sign: the digest prefixed with a
    domain tag.  Cached at construction; this is a field read. *)
