let request_bytes = 512
let control_bytes = 256
let signature_bytes = Crypto.Signature.wire_size + 128

let vote_push_bytes ~n_relays = Dirdoc.Vote.wire_size_for ~n_relays + control_bytes

let dir_connection_timeout = 60.
