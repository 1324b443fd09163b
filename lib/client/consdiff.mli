(** Consensus diffs (Tor's consdiff format, prop #140 / dir-spec).

    Clients that already hold last hour's consensus fetch only an
    ed-style line diff of the new one, cutting directory bandwidth by
    an order of magnitude — which matters here because directory
    bandwidth is exactly what the DDoS attack starves.  This module
    implements line-based diff computation (a one-pass merge of the two
    documents' per-relay blocks), the ed-script encoding, and patch
    application.

    [patch base (diff base target) = target] for any two documents. *)

type command =
  | Delete of { start : int; stop : int }
      (** delete lines [start..stop] of the base (1-indexed) *)
  | Replace of { start : int; stop : int; lines : string list }
      (** replace lines [start..stop] with [lines] *)
  | Insert of { after : int; lines : string list }
      (** insert [lines] after base line [after] (0 = at the top) *)

type t = {
  base_digest : Crypto.Digest32.t;    (** document the diff applies to *)
  target_digest : Crypto.Digest32.t;  (** expected result *)
  commands : command list;            (** in ascending base-line order *)
}

val diff : base:string -> target:string -> t
(** Compute a line diff between two serialized documents; identical
    documents give an empty command list. *)

val patch : base:string -> t -> (string, string) result
(** Apply a diff.  Fails with an explanation if the base digest does
    not match, a command references lines out of range, or the result
    does not hash to [target_digest]. *)

val wire_size : t -> int
(** Modelled transfer size: headers plus the encoded commands. *)

val savings : base:string -> target:string -> float
(** [1 - wire_size(diff)/|target|]: the fraction of download saved by
    fetching the diff instead of the full document. *)
