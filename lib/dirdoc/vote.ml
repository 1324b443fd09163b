type t = {
  authority : int;
  authority_fingerprint : string;
  nickname : string;
  published : float;
  valid_after : float;
  fresh_until : float;
  valid_until : float;
  relays : Relay.t array;
  digest : Crypto.Digest32.t;
}

let header_wire_bytes = 2048

(* Canonical compact encoding: every voted property of every relay, so
   any divergence between two authorities' views changes the digest.
   Each record is rendered into one reused [Sink] scratch and flushed
   into the streaming hash, so a 10k-relay vote allocates neither a
   megabyte string nor any per-relay [sprintf] intermediates.  The
   encoding is pinned byte-for-byte by the digest regression tests. *)
let compute_digest ~authority ~authority_fingerprint ~published ~valid_after relays =
  let ctx = Crypto.Sha256.init () in
  let sink = Crypto.Sink.create () in
  Crypto.Sink.feed_str sink "vote|";
  Crypto.Sink.feed_int sink authority;
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_str sink authority_fingerprint;
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_fixed sink published;
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_fixed sink valid_after;
  Crypto.Sink.feed_char sink '|';
  Array.iter
    (fun (r : Relay.t) ->
      Crypto.Sink.feed_str sink r.fingerprint;
      Crypto.Sink.feed_str sink r.nickname;
      Crypto.Sink.feed_str sink (Crypto.Digest32.raw r.descriptor_digest);
      Crypto.Sink.feed_char sink '|';
      Flags.feed sink r.flags;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_int sink r.bandwidth;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_int sink (Option.value r.measured ~default:(-1));
      Crypto.Sink.feed_char sink '|';
      Version.feed sink r.version;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink r.protocols;
      Crypto.Sink.feed_char sink '|';
      Exit_policy.feed sink r.exit_policy;
      Crypto.Sink.feed_char sink '\n';
      (* Flush in ~4 KiB batches: the hash then consumes mostly whole
         blocks straight from the sink buffer instead of realigning a
         partial block every relay. *)
      if Crypto.Sink.length sink >= 4096 then begin
        Crypto.Sink.feed_sha256 sink ctx;
        Crypto.Sink.clear sink
      end)
    relays;
  Crypto.Sink.feed_sha256 sink ctx;
  Crypto.Digest32.of_raw (Crypto.Sha256.finalize ctx)

let create ~authority ~authority_fingerprint ~nickname ~published ~valid_after ~relays =
  if authority < 0 then invalid_arg "Vote.create: negative authority id";
  let arr = Array.of_list relays in
  (* Most callers pass relays already in fingerprint order
     ([Workload.votes] sorts each population once; parsing reads a
     serialized vote), so check before paying for a full sort. *)
  let sorted = ref true in
  for i = 1 to Array.length arr - 1 do
    if Relay.compare_fingerprint arr.(i - 1) arr.(i) > 0 then sorted := false
  done;
  if not !sorted then Array.sort Relay.compare_fingerprint arr;
  for i = 1 to Array.length arr - 1 do
    if String.equal arr.(i - 1).Relay.fingerprint arr.(i).Relay.fingerprint then
      invalid_arg "Vote.create: duplicate relay fingerprint"
  done;
  {
    authority;
    authority_fingerprint;
    nickname;
    published;
    valid_after;
    fresh_until = valid_after +. 3600.;
    valid_until = valid_after +. (3. *. 3600.);
    relays = arr;
    digest = compute_digest ~authority ~authority_fingerprint ~published ~valid_after arr;
  }

let n_relays t = Array.length t.relays

let find t ~fingerprint =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare fingerprint t.relays.(mid).Relay.fingerprint in
      if c = 0 then Some t.relays.(mid)
      else if c < 0 then search lo mid
      else search (mid + 1) hi
  in
  search 0 (Array.length t.relays)

let wire_size_for ~n_relays = header_wire_bytes + (Relay.entry_wire_bytes * n_relays)
let wire_size t = wire_size_for ~n_relays:(n_relays t)
let digest t = t.digest
let equal a b = Crypto.Digest32.equal a.digest b.digest

let serialize t =
  let buf = Buffer.create (4096 + (Array.length t.relays * 512)) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "network-status-version 3";
  line "vote-status vote";
  line "consensus-method 34";
  line "published %s" (Timefmt.to_string t.published);
  line "valid-after %s" (Timefmt.to_string t.valid_after);
  line "fresh-until %s" (Timefmt.to_string t.fresh_until);
  line "valid-until %s" (Timefmt.to_string t.valid_until);
  line "dir-source %s %d %s" t.nickname t.authority t.authority_fingerprint;
  Array.iter
    (fun (r : Relay.t) ->
      line "r %s %s %s %s %d %d" r.nickname r.fingerprint
        (Timefmt.to_string r.published) r.address r.or_port r.dir_port;
      line "s %s" (Flags.to_string r.flags);
      line "v Tor %s" (Version.to_string r.version);
      line "pr %s" r.protocols;
      (match r.measured with
      | None -> line "w Bandwidth=%d" r.bandwidth
      | Some m -> line "w Bandwidth=%d Measured=%d" r.bandwidth m);
      line "p %s" (Exit_policy.to_string r.exit_policy);
      line "m %s" (Crypto.Digest32.hex r.descriptor_digest))
    t.relays;
  line "directory-footer";
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

(* The parser is an index-based scanner over the input: each line is a
   [start, stop) span, keywords are matched in place, and ports and
   bandwidth weights are decoded by a direct decimal scan.  The only
   substrings taken are the ones that survive into the result (names,
   addresses, protocol lists) or that sub-parsers genuinely require
   (flag/version/policy/timestamp text) — the old line/field
   tokenization via [String.split_on_char] allocated a list of strings
   for every line of a megabyte-sized document. *)

type parser_state = {
  mutable meta : (string * string) list;
  mutable relays_rev : Relay.t list;
  (* fields of the relay entry being assembled; [r_have] guards them *)
  mutable r_have : bool;
  mutable r_nickname : string;
  mutable r_fingerprint : string;
  mutable r_published : float;
  mutable r_address : string;
  mutable r_or_port : int; (* -1: missing/malformed *)
  mutable r_dir_port : int;
  mutable r_flags : Flags.t option;
  mutable r_version : Version.t option;
  mutable r_protocols : string option;
  mutable r_bandwidth : (int * int option) option;
  mutable r_policy : Exit_policy.t option;
  (* scratch for the r-line field boundaries, reused across lines *)
  field_starts : int array;
  field_stops : int array;
}

let ( let* ) = Result.bind

let parse_timestamp meta key =
  match List.assoc_opt key meta with
  | None -> Error (Printf.sprintf "missing %s" key)
  | Some raw -> Timefmt.of_string raw

(* Do the bytes [i, j) of [text] spell [s]? *)
let span_eq text i j s =
  let n = String.length s in
  j - i = n
  &&
  let rec go k = k = n || (String.unsafe_get text (i + k) = s.[k] && go (k + 1)) in
  go 0

(* Non-negative decimal over [i, j); [-1] on empty, non-digit, or
   overflow — the sentinel keeps the per-field result unboxed. *)
let parse_int_span text i j =
  if i >= j || j - i > 18 then -1
  else begin
    let v = ref 0 in
    let ok = ref true in
    for k = i to j - 1 do
      let c = Char.code (String.unsafe_get text k) - Char.code '0' in
      if c < 0 || c > 9 then ok := false else v := (!v * 10) + c
    done;
    if !ok then !v else -1
  end

let flush_relay st =
  if not st.r_have then Ok ()
  else
    match (st.r_flags, st.r_version, st.r_bandwidth, st.r_policy) with
    | Some flags, Some version, Some (bandwidth, measured), Some policy
      when st.r_or_port >= 0 && st.r_dir_port >= 0 -> (
        match
          Relay.make ~fingerprint:st.r_fingerprint ~nickname:st.r_nickname
            ~address:st.r_address ~or_port:st.r_or_port ~dir_port:st.r_dir_port
            ~published:st.r_published ~flags ~version ?protocols:st.r_protocols
            ~bandwidth ?measured ~exit_policy:policy ()
        with
        | exception Invalid_argument e -> Error e
        | relay ->
            st.relays_rev <- relay :: st.relays_rev;
            st.r_have <- false;
            st.r_flags <- None;
            st.r_version <- None;
            st.r_protocols <- None;
            st.r_bandwidth <- None;
            st.r_policy <- None;
            Ok ())
    | _ -> Error (Printf.sprintf "incomplete relay entry for %s" st.r_fingerprint)

(* "r nickname fingerprint date time address or_port dir_port": exactly
   seven space-separated fields.  The date and time fields are adjacent,
   so the timestamp is one substring of the original line. *)
let parse_r_line st text i j =
  (* Field boundaries: starts.(k) .. stops.(k), in the reused scratch. *)
  let starts = st.field_starts and stops = st.field_stops in
  let field = ref 0 in
  let start = ref i in
  let ok = ref true in
  for k = i to j - 1 do
    if String.unsafe_get text k = ' ' then begin
      if !field >= 6 then ok := false
      else begin
        starts.(!field) <- !start;
        stops.(!field) <- k;
        incr field;
        start := k + 1
      end
    end
  done;
  if (not !ok) || !field <> 6 then Error "malformed r line"
  else begin
    starts.(6) <- !start;
    stops.(6) <- j;
    let sub k = String.sub text starts.(k) (stops.(k) - starts.(k)) in
    (* date and time, rejoined as the span covering both fields *)
    let* published =
      Timefmt.of_string (String.sub text starts.(2) (stops.(3) - starts.(2)))
    in
    st.r_have <- true;
    st.r_nickname <- sub 0;
    st.r_fingerprint <- sub 1;
    st.r_published <- published;
    st.r_address <- sub 4;
    st.r_or_port <- parse_int_span text starts.(5) stops.(5);
    st.r_dir_port <- parse_int_span text starts.(6) stops.(6);
    Ok ()
  end

(* "w Bandwidth=<int> [Measured=<int>]": scan the space-separated
   tokens in place, first token carrying each prefix wins. *)
let parse_w_line text i j =
  let bandwidth = ref None and measured = ref None in
  let tok_start = ref i in
  let consider ts te =
    let try_prefix prefix cell =
      let pl = String.length prefix in
      if !cell = None && te - ts > pl && span_eq text ts (ts + pl) prefix then
        let v = parse_int_span text (ts + pl) te in
        if v >= 0 then cell := Some v
    in
    try_prefix "Bandwidth=" bandwidth;
    try_prefix "Measured=" measured
  in
  for k = i to j - 1 do
    if String.unsafe_get text k = ' ' then begin
      consider !tok_start k;
      tok_start := k + 1
    end
  done;
  consider !tok_start j;
  match !bandwidth with
  | None -> Error "w line missing Bandwidth="
  | Some bw -> Ok (bw, !measured)

let parse text =
  let len = String.length text in
  let st =
    {
      meta = [];
      relays_rev = [];
      r_have = false;
      r_nickname = "";
      r_fingerprint = "";
      r_published = 0.;
      r_address = "";
      r_or_port = -1;
      r_dir_port = -1;
      r_flags = None;
      r_version = None;
      r_protocols = None;
      r_bandwidth = None;
      r_policy = None;
      field_starts = Array.make 7 0;
      field_stops = Array.make 7 0;
    }
  in
  let rec consume ls =
    if ls >= len then Ok ()
    else begin
      let le =
        let rec find i = if i >= len || String.unsafe_get text i = '\n' then i else find (i + 1) in
        find ls
      in
      if le = ls then consume (le + 1)
      else begin
        (* keyword = [ls, ke); payload = [ps, le) *)
        let ke =
          let rec find i = if i >= le || text.[i] = ' ' then i else find (i + 1) in
          find ls
        in
        let ps = if ke < le then ke + 1 else le in
        let* () =
          if span_eq text ls ke "r" then
            let* () = flush_relay st in
            parse_r_line st text ps le
          else if span_eq text ls ke "s" then
            let* flags = Flags.of_string (String.sub text ps (le - ps)) in
            st.r_flags <- Some flags;
            Ok ()
          else if span_eq text ls ke "v" then begin
            (* skip the implementation name ("Tor") if present *)
            let vs =
              let rec find i = if i >= le || text.[i] = ' ' then i else find (i + 1) in
              let sp = find ps in
              if sp < le then sp + 1 else ps
            in
            let* v = Version.of_string (String.sub text vs (le - vs)) in
            st.r_version <- Some v;
            Ok ()
          end
          else if span_eq text ls ke "pr" then begin
            st.r_protocols <- Some (String.sub text ps (le - ps));
            Ok ()
          end
          else if span_eq text ls ke "w" then
            let* bw = parse_w_line text ps le in
            st.r_bandwidth <- Some bw;
            Ok ()
          else if span_eq text ls ke "p" then
            let* policy = Exit_policy.of_string (String.sub text ps (le - ps)) in
            st.r_policy <- Some policy;
            Ok ()
          else if
            span_eq text ls ke "m"
            || span_eq text ls ke "network-status-version"
            || span_eq text ls ke "vote-status"
            || span_eq text ls ke "consensus-method"
          then Ok ()
          else if span_eq text ls ke "directory-footer" then flush_relay st
          else begin
            st.meta <- (String.sub text ls (ke - ls), String.sub text ps (le - ps)) :: st.meta;
            Ok ()
          end
        in
        consume (le + 1)
      end
    end
  in
  let* () = consume 0 in
  let* () = flush_relay st in
  let* published = parse_timestamp st.meta "published" in
  let* valid_after = parse_timestamp st.meta "valid-after" in
  match List.assoc_opt "dir-source" st.meta with
  | None -> Error "missing dir-source"
  | Some src -> (
      match String.split_on_char ' ' src with
      | [ nickname; authority; fingerprint ] -> (
          match int_of_string_opt authority with
          | None -> Error "bad authority id in dir-source"
          | Some authority -> (
              match
                create ~authority ~authority_fingerprint:fingerprint ~nickname
                  ~published ~valid_after ~relays:(List.rev st.relays_rev)
              with
              | v -> Ok v
              | exception Invalid_argument e -> Error e))
      | _ -> Error "malformed dir-source")
