module Consensus = Dirdoc.Consensus

type document = {
  valid_after : float;
  n_votes : int;
  entries : Consensus.entry array;
}

let of_consensus (c : Consensus.t) =
  { valid_after = c.valid_after; n_votes = c.n_votes; entries = c.entries }

(* The wire encoding: both document digests and a 32-byte preamble,
   then per command a 16-byte header and the lines it carries. *)
let preamble = (2 * Crypto.Digest32.wire_size) + 32
let command = 16

(* One pass over both entry arrays, merged by fingerprint as the line
   diff merges the documents' relay blocks; the footer never changes,
   so it costs nothing.  Texts are rendered in one scratch sink. *)
let wire_size ~base ~target =
  let sink = Crypto.Sink.create () in
  let render feed =
    Crypto.Sink.clear sink;
    feed sink;
    Crypto.Sink.contents sink
  in
  let header d = render (Consensus.feed_header ~valid_after:d.valid_after ~n_votes:d.n_votes) in
  let entry e = render (fun sink -> Consensus.feed_entry sink e) in
  let target_header = header target in
  let header_cost =
    if String.equal (header base) target_header then 0
    else command + String.length target_header
  in
  let carry e = command + String.length (entry e) in
  let unchanged b t = b == t || String.equal (entry b) (entry t) in
  let bs = base.entries and ts = target.entries in
  let nb = Array.length bs and nt = Array.length ts in
  let rec merge i j cost =
    if i < nb && j < nt then
      let c = String.compare bs.(i).fingerprint ts.(j).fingerprint in
      if c < 0 then merge (i + 1) j (cost + command)
      else if c > 0 then merge i (j + 1) (cost + carry ts.(j))
      else if unchanged bs.(i) ts.(j) then merge (i + 1) (j + 1) cost
      else merge (i + 1) (j + 1) (cost + carry ts.(j))
    else if i < nb then merge (i + 1) j (cost + command)
    else if j < nt then merge i (j + 1) (cost + carry ts.(j))
    else cost
  in
  preamble + header_cost + merge 0 0 0
