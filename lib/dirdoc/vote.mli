(** v3 status votes — the input documents of the directory protocol.

    A vote is an authority's signed snapshot of every relay it knows.
    Protocol simulations pass votes by reference and account for their
    size with {!wire_size} (an analytic function of the relay count,
    calibrated in DESIGN.md §4.1); {!serialize}/{!parse} produce and
    read the dir-spec-style text form for interoperability tests and
    the examples. *)

type t = private {
  authority : int;               (** authority index, 0-based *)
  authority_fingerprint : string;
  nickname : string;
  published : float;
  valid_after : float;
  fresh_until : float;
  valid_until : float;
  relays : Relay.t array;        (** sorted by fingerprint, unique *)
  digest : Crypto.Digest32.t;    (** canonical content digest *)
}

val create :
  authority:int ->
  authority_fingerprint:string ->
  nickname:string ->
  published:float ->
  valid_after:float ->
  relays:Relay.t list ->
  t
(** Sorts relays by fingerprint, rejects duplicates, derives
    [fresh_until = valid_after + 1 h] and [valid_until = valid_after
    + 3 h] (Tor's staleness rules), and computes the content digest.
    Raises [Invalid_argument] on duplicates or a negative authority
    id. *)

val n_relays : t -> int

val find : t -> fingerprint:string -> Relay.t option
(** Binary search by fingerprint. *)

val wire_size : t -> int
(** Modelled bytes on the wire: a 2,048-byte header plus
    {!Relay.entry_wire_bytes} (600) per relay. *)

val wire_size_for : n_relays:int -> int
(** The same function without a vote in hand, for sizing vote
    pushes. *)

val digest : t -> Crypto.Digest32.t

val equal : t -> t -> bool
(** Content equality, via digests. *)

val serialize : t -> string
(** Render as dir-spec-style text. *)

val parse : string -> (t, string) result
(** Parse text produced by {!serialize}.  [parse (serialize v)] equals
    [v] content-wise. *)
