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
      Crypto.Sink.feed_str sink (Version.to_string r.version);
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink r.protocols;
      Crypto.Sink.feed_char sink '|';
      Crypto.Sink.feed_str sink (Exit_policy.to_string r.exit_policy);
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

(* The relay entry an [r] line opened: its fields so far.  [s], [v],
   [pr], [w] and [p] lines fill it in; the next [r] line,
   [directory-footer] or the end of the text closes it. *)
type entry = {
  nickname : string;
  fingerprint : string;
  published : float;
  address : string;
  or_port : int;
  dir_port : int;
  flags : Flags.t option;
  version : Version.t option;
  protocols : string option;
  weights : (int * int option) option;
  policy : Exit_policy.t option;
}

let ( let* ) = Result.bind

(* A non-negative decimal of at most 18 digits, so it fits an int. *)
let decimal s =
  if s = "" || String.length s > 18 || not (String.for_all (fun c -> c >= '0' && c <= '9') s)
  then None
  else Some (int_of_string s)

(* "r nickname fingerprint date time address or_port dir_port". *)
let open_entry payload =
  match String.split_on_char ' ' payload with
  | [ nickname; fingerprint; date; time; address; or_port; dir_port ] -> (
      let* published = Timefmt.of_string (date ^ " " ^ time) in
      match (decimal or_port, decimal dir_port) with
      | Some or_port, Some dir_port ->
          Ok
            { nickname; fingerprint; published; address; or_port; dir_port; flags = None;
              version = None; protocols = None; weights = None; policy = None }
      | _ -> Error "malformed r line")
  | _ -> Error "malformed r line"

(* "w Bandwidth=<int> [Measured=<int>]": the first well-formed token
   carrying each prefix wins. *)
let weights payload =
  let words = String.split_on_char ' ' payload in
  let value prefix =
    let n = String.length prefix in
    List.find_map
      (fun w ->
        if String.starts_with ~prefix w then decimal (String.sub w n (String.length w - n))
        else None)
      words
  in
  match value "Bandwidth=" with
  | None -> Error "w line missing Bandwidth="
  | Some bandwidth -> Ok (bandwidth, value "Measured=")

let fill e keyword payload =
  match keyword with
  | "s" ->
      let* flags = Flags.of_string payload in
      Ok { e with flags = Some flags }
  | "v" ->
      (* skip the implementation name ("Tor") if present *)
      let v =
        match String.index_opt payload ' ' with
        | Some i -> String.sub payload (i + 1) (String.length payload - i - 1)
        | None -> payload
      in
      let* version = Version.of_string v in
      Ok { e with version = Some version }
  | "pr" -> Ok { e with protocols = Some payload }
  | "w" ->
      let* w = weights payload in
      Ok { e with weights = Some w }
  | _ (* "p" *) ->
      let* policy = Exit_policy.of_string payload in
      Ok { e with policy = Some policy }

let close relays = function
  | None -> Ok relays
  | Some e -> (
      match (e.flags, e.version, e.weights, e.policy) with
      | Some flags, Some version, Some (bandwidth, measured), Some exit_policy -> (
          match
            Relay.make ~fingerprint:e.fingerprint ~nickname:e.nickname ~address:e.address
              ~or_port:e.or_port ~dir_port:e.dir_port ~published:e.published ~flags
              ~version ?protocols:e.protocols ~bandwidth ?measured ~exit_policy ()
          with
          | relay -> Ok (relay :: relays)
          | exception Invalid_argument msg -> Error msg)
      | _ -> Error (Printf.sprintf "incomplete relay entry for %s" e.fingerprint))

(* One line's step over [(meta, relays, entry)]: the header fields
   and the closed relays, both newest first, and the open entry. *)
let step ((meta, relays, entry) as state) keyword payload =
  match keyword with
  | "r" ->
      let* relays = close relays entry in
      let* e = open_entry payload in
      Ok (meta, relays, Some e)
  | "s" | "v" | "pr" | "w" | "p" -> (
      match entry with
      | None -> Error (Printf.sprintf "%s line outside a relay entry" keyword)
      | Some e ->
          let* e = fill e keyword payload in
          Ok (meta, relays, Some e))
  | "directory-footer" ->
      let* relays = close relays entry in
      Ok (meta, relays, None)
  | "m" | "network-status-version" | "vote-status" | "consensus-method" -> Ok state
  | _ -> Ok ((keyword, payload) :: meta, relays, entry)

(* The lines from [pos] on, one at a time and in tail position (a
   32k-relay vote has about 224,000 lines).  Splitting the whole text
   first would keep every line alive to the end of the parse. *)
let rec read text pos state =
  let len = String.length text in
  let upto c = Option.value (String.index_from_opt text pos c) ~default:len in
  if pos >= len then Ok state
  else
    let stop = upto '\n' in
    if stop = pos then read text (stop + 1) state
    else
      let sp = min stop (upto ' ') in
      let keyword = String.sub text pos (sp - pos)
      and payload = if sp < stop then String.sub text (sp + 1) (stop - sp - 1) else "" in
      match step state keyword payload with
      | Ok state -> read text (stop + 1) state
      | Error _ as e -> e

let parse text =
  let* meta, relays, entry = read text 0 ([], [], None) in
  let* relays = close relays entry in
  let header key = Option.to_result ~none:("missing " ^ key) (List.assoc_opt key meta) in
  let* published = Result.bind (header "published") Timefmt.of_string in
  let* valid_after = Result.bind (header "valid-after") Timefmt.of_string in
  let* source = header "dir-source" in
  match String.split_on_char ' ' source with
  | [ nickname; authority; fingerprint ] -> (
      match decimal authority with
      | None -> Error "bad authority id in dir-source"
      | Some authority -> (
          match
            create ~authority ~authority_fingerprint:fingerprint ~nickname ~published
              ~valid_after ~relays:(List.rev relays)
          with
          | v -> Ok v
          | exception Invalid_argument e -> Error e))
  | _ -> Error "malformed dir-source"
