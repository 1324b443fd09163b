(** Consensus diffs (Tor's consdiff format, prop #140 / dir-spec).

    Clients that already hold last hour's consensus fetch only an
    ed-style line diff of the new one, cutting directory bandwidth by
    an order of magnitude — which matters here because directory
    bandwidth is exactly what the DDoS attack starves.

    Directory text is structured: a header, one six-line block per
    relay (sorted by fingerprint), a footer.  The diff merges the two
    documents' blocks by fingerprint and emits one command per block
    that changed: the target's header lines when the rendered headers
    differ, the target's block for a relay that joined or whose
    rendered block changed, and a line-range delete for a relay that
    left.  This module computes the diff's transfer size from the two
    documents' header fields and entries, building neither text. *)

type document = {
  valid_after : float;
  n_votes : int;
  entries : Dirdoc.Consensus.entry array;
      (** sorted by fingerprint, no fingerprint twice *)
}
(** What a consensus's text is rendered from
    ({!Dirdoc.Consensus.serialize}): its header fields and entries. *)

val of_consensus : Dirdoc.Consensus.t -> document

val wire_size : base:document -> target:document -> int
(** Transfer size of the diff that turns [base]'s text into
    [target]'s: the two document digests and a 32-byte preamble, then
    16 bytes per command plus the lines the command carries, each
    with its newline.  Entries that are physically equal are taken as
    unchanged without rendering them. *)
