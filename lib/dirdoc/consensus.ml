type entry = {
  fingerprint : string;
  nickname : string;
  flags : Flags.t;
  version : Version.t;
  protocols : string;
  bandwidth : int;
  exit_policy : Exit_policy.t;
}

type t = {
  valid_after : float;
  fresh_until : float;
  valid_until : float;
  n_votes : int;
  entries : entry array;
  digest : Crypto.Digest32.t;
  signing_payload : string;
}

(* Same scheme as [Vote.compute_digest]: one reused [Sink] scratch per
   record, flushed into the streaming hash — no per-entry [sprintf].
   The encoding is pinned byte-for-byte by the digest regression
   tests. *)
let compute_digest ~valid_after ~n_votes entries =
  let ctx = Crypto.Sha256.init () in
  let sink = Crypto.Sink.create () in
  Crypto.Sink.feed_str sink "consensus|";
  Crypto.Sink.feed_fixed sink valid_after;
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_int sink n_votes;
  Crypto.Sink.feed_char sink '|';
  Array.iter
    (fun e ->
      Crypto.Sink.feed_str sink e.fingerprint;
      Crypto.Sink.feed_str sink e.nickname;
      Crypto.Sink.feed_char sink '|';
      Flags.feed sink e.flags;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_int sink e.bandwidth;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink (Version.to_string e.version);
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink e.protocols;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink (Exit_policy.to_string e.exit_policy);
      Crypto.Sink.feed_char sink '\n';
      (* Same ~4 KiB batched flush as [Vote.compute_digest]. *)
      if Crypto.Sink.length sink >= 4096 then begin
        Crypto.Sink.feed_sha256 sink ctx;
        Crypto.Sink.clear sink
      end)
    entries;
  Crypto.Sink.feed_sha256 sink ctx;
  Crypto.Digest32.of_raw (Crypto.Sha256.finalize ctx)

(* The validity window clients enforce: fresh for 1 h, valid for 3 h. *)
let fresh_until_of valid_after = valid_after +. 3600.
let valid_until_of valid_after = valid_after +. (3. *. 3600.)

let create ~valid_after ~n_votes ~entries =
  let arr = Array.of_list entries in
  (* Aggregation emits entries already in fingerprint order; skip the
     sort when the input confirms it. *)
  let sorted = ref true in
  for i = 1 to Array.length arr - 1 do
    if String.compare arr.(i - 1).fingerprint arr.(i).fingerprint > 0 then
      sorted := false
  done;
  if not !sorted then
    Array.sort (fun a b -> String.compare a.fingerprint b.fingerprint) arr;
  for i = 1 to Array.length arr - 1 do
    if String.equal arr.(i - 1).fingerprint arr.(i).fingerprint then
      invalid_arg "Consensus.create: duplicate relay fingerprint"
  done;
  let digest = compute_digest ~valid_after ~n_votes arr in
  {
    valid_after;
    fresh_until = fresh_until_of valid_after;
    valid_until = valid_until_of valid_after;
    n_votes;
    entries = arr;
    digest;
    signing_payload = "tor-consensus-signature\x00" ^ Crypto.Digest32.raw digest;
  }

let n_entries t = Array.length t.entries

let find t ~fingerprint =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare fingerprint t.entries.(mid).fingerprint in
      if c = 0 then Some t.entries.(mid)
      else if c < 0 then search lo mid
      else search (mid + 1) hi
  in
  search 0 (Array.length t.entries)

let digest t = t.digest
let equal a b = Crypto.Digest32.equal a.digest b.digest
let is_fresh t ~now = now < t.fresh_until
let is_valid t ~now = now < t.valid_until

(* The text is written in three pieces through the [Sink] feeders:
   the header lines, each entry's six lines, the footer.  [serialize]
   concatenates them; [text_size] and [Torclient.Consdiff.wire_size]
   render the same pieces into a scratch sink for their lengths. *)
let feed_header sink ~valid_after ~n_votes =
  let line s =
    Crypto.Sink.feed_str sink s;
    Crypto.Sink.feed_char sink '\n'
  in
  line "network-status-version 3";
  line "vote-status consensus";
  line "consensus-method 34";
  line ("valid-after " ^ Timefmt.to_string valid_after);
  line ("fresh-until " ^ Timefmt.to_string (fresh_until_of valid_after));
  line ("valid-until " ^ Timefmt.to_string (valid_until_of valid_after));
  Crypto.Sink.feed_str sink "vote-count ";
  Crypto.Sink.feed_int sink n_votes;
  Crypto.Sink.feed_char sink '\n';
  line "voting-delay 300 300"

let feed_entry sink e =
  Crypto.Sink.feed_str sink "r ";
  Crypto.Sink.feed_str sink e.nickname;
  Crypto.Sink.feed_char sink ' ';
  Crypto.Sink.feed_str sink e.fingerprint;
  Crypto.Sink.feed_str sink "\ns ";
  Flags.feed sink e.flags;
  Crypto.Sink.feed_str sink "\nv Tor ";
  Crypto.Sink.feed_str sink (Version.to_string e.version);
  Crypto.Sink.feed_str sink "\npr ";
  Crypto.Sink.feed_str sink e.protocols;
  Crypto.Sink.feed_str sink "\nw Bandwidth=";
  Crypto.Sink.feed_int sink e.bandwidth;
  Crypto.Sink.feed_str sink "\np ";
  Crypto.Sink.feed_str sink (Exit_policy.to_string e.exit_policy);
  Crypto.Sink.feed_char sink '\n'

let footer = "directory-footer\n"

let serialize t =
  let sink = Crypto.Sink.create () in
  feed_header sink ~valid_after:t.valid_after ~n_votes:t.n_votes;
  Array.iter (feed_entry sink) t.entries;
  Crypto.Sink.feed_str sink footer;
  Crypto.Sink.contents sink

(* One scratch sink, cleared per entry: the text is never held whole. *)
let text_size t =
  let sink = Crypto.Sink.create () in
  feed_header sink ~valid_after:t.valid_after ~n_votes:t.n_votes;
  Array.fold_left
    (fun size e ->
      Crypto.Sink.clear sink;
      feed_entry sink e;
      size + Crypto.Sink.length sink)
    (Crypto.Sink.length sink + String.length footer)
    t.entries

let signing_payload t = t.signing_payload
