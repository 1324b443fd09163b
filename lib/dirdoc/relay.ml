type t = {
  fingerprint : string;
  nickname : string;
  address : string;
  or_port : int;
  dir_port : int;
  published : float;
  flags : Flags.t;
  version : Version.t;
  protocols : string;
  bandwidth : int;
  measured : int option;
  exit_policy : Exit_policy.t;
  descriptor_digest : Crypto.Digest32.t;
}

let default_protocols =
  "Cons=1-2 Desc=1-2 DirCache=2 FlowCtrl=1-2 HSDir=2 HSIntro=4-5 HSRend=1-2 \
   Link=1-5 LinkAuth=1,3 Microdesc=1-2 Padding=2 Relay=1-4"

let is_hex c = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'F')

let validate_fingerprint fp =
  String.length fp = 40 && String.for_all is_hex fp

(* The SHA-256 of "desc|<fingerprint>|<published as %f>|<bandwidth>|
   <version>".  [%f] of an integral time is its [%.0f] digits plus
   ".000000", which [feed_fixed] writes in place; any other time goes
   through [sprintf] itself. *)
let descriptor_digest_of ~fingerprint ~published ~bandwidth ~version =
  let sink = Crypto.Sink.create () in
  Crypto.Sink.feed_str sink "desc|";
  Crypto.Sink.feed_str sink fingerprint;
  Crypto.Sink.feed_char sink '|';
  if Float.is_integer published then begin
    Crypto.Sink.feed_fixed sink published;
    Crypto.Sink.feed_str sink ".000000"
  end
  else Crypto.Sink.feed_str sink (Printf.sprintf "%f" published);
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_int sink bandwidth;
  Crypto.Sink.feed_char sink '|';
  Crypto.Sink.feed_str sink (Version.to_string version);
  Crypto.Digest32.of_raw (Crypto.Sink.digest sink)

let make ~fingerprint ~nickname ~address ~or_port ?(dir_port = 0) ~published ~flags
    ~version ?(protocols = default_protocols) ~bandwidth ?measured ~exit_policy () =
  if not (validate_fingerprint fingerprint) then
    invalid_arg "Relay.make: fingerprint must be 40 uppercase hex chars";
  if nickname = "" then invalid_arg "Relay.make: empty nickname";
  if or_port < 1 || or_port > 65535 then invalid_arg "Relay.make: bad or_port";
  if dir_port < 0 || dir_port > 65535 then invalid_arg "Relay.make: bad dir_port";
  if bandwidth < 0 then invalid_arg "Relay.make: negative bandwidth";
  (match measured with
  | Some m when m < 0 -> invalid_arg "Relay.make: negative measurement"
  | _ -> ());
  {
    fingerprint;
    nickname;
    address;
    or_port;
    dir_port;
    published;
    flags;
    version;
    protocols;
    bandwidth;
    measured;
    exit_policy;
    descriptor_digest = descriptor_digest_of ~fingerprint ~published ~bandwidth ~version;
  }

let compare_fingerprint a b = String.compare a.fingerprint b.fingerprint

let equal a b =
  String.equal a.fingerprint b.fingerprint
  && String.equal a.nickname b.nickname
  && String.equal a.address b.address
  && a.or_port = b.or_port && a.dir_port = b.dir_port
  && a.published = b.published
  && Flags.equal a.flags b.flags
  && Version.equal a.version b.version
  && String.equal a.protocols b.protocols
  && a.bandwidth = b.bandwidth
  && Option.equal Int.equal a.measured b.measured
  && Exit_policy.equal a.exit_policy b.exit_policy

let entry_wire_bytes = 600
