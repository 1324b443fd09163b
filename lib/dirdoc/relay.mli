(** Relay status entries as they appear in a vote.

    One value of this type corresponds to one "r"/"s"/"v"/"pr"/"w"/"p"/
    "m" line group in a v3 status vote.  Identity is the 40-hex-char
    fingerprint. *)

type t = {
  fingerprint : string;  (** 40 uppercase hex chars *)
  nickname : string;
  address : string;      (** dotted quad *)
  or_port : int;
  dir_port : int;
  published : float;     (** POSIX seconds *)
  flags : Flags.t;
  version : Version.t;
  protocols : string;    (** dir-spec "pr" line payload *)
  bandwidth : int;       (** advertised, in kB/s *)
  measured : int option; (** bandwidth-authority measurement, kB/s *)
  exit_policy : Exit_policy.t;
  descriptor_digest : Crypto.Digest32.t;
}

val make :
  fingerprint:string ->
  nickname:string ->
  address:string ->
  or_port:int ->
  ?dir_port:int ->
  published:float ->
  flags:Flags.t ->
  version:Version.t ->
  ?protocols:string ->
  bandwidth:int ->
  ?measured:int ->
  exit_policy:Exit_policy.t ->
  unit ->
  t
(** Validates the fingerprint (40 hex chars), ports, and bandwidth;
    derives the descriptor digest from the other fields.  Raises
    [Invalid_argument] on malformed input. *)

val default_protocols : string
(** The "pr" payload advertised by a current relay. *)

val compare_fingerprint : t -> t -> int
(** Order by fingerprint — the canonical order of entries in votes and
    consensus documents. *)

val equal : t -> t -> bool
(** Full structural equality (all voted properties). *)

val entry_wire_bytes : int
(** Modelled serialized size of one relay entry (600 bytes, the scale
    of real dir-spec vote entries; DESIGN.md §4.1 explains how this
    interacts with the shared-NIC model and Tor's directory-connection
    timeout to reproduce the paper's failure crossovers). *)
