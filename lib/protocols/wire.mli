(** Wire-size constants shared by every protocol implementation.

    Protocol messages travel by reference inside the simulator; these
    constants turn each message into the byte count the NIC model
    charges for it. *)

val request_bytes : int
(** An HTTP-style GET for a vote or signature (headers + URL). *)

val control_bytes : int
(** Envelope overhead added to every protocol message (framing, TLS
    record, keywords). *)

val signature_bytes : int
(** One detached signature on the wire: κ = 64 plus identity and
    framing. *)

val vote_push_bytes : n_relays:int -> int
(** A full vote document plus envelope. *)

val dir_connection_timeout : float
(** Tor's directory-client connection timeout (60 s): a vote transfer
    that cannot complete within this window fails with
    [connection_dir_client_request_failed] and must be retried from
    scratch — the mechanism that turns a bandwidth cap into missing
    votes (Figure 1) and sets the Figure 7 bandwidth requirement.
    The paper's protocol deliberately has no such deadline
    ("allowing for an arbitrary timeout while sending the file"). *)
