(* Tests for the crypto substrate: SHA-256 against the NIST vectors,
   HMAC against RFC 4231, and the simulated signature scheme's
   soundness. *)

open Crypto

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let str = Alcotest.string

(* --- SHA-256 ------------------------------------------------------------ *)

let nist_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_nist () =
  List.iter
    (fun (input, expected) -> check str input expected (Sha256.digest_hex input))
    nist_vectors

let test_million_a () =
  check str "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_streaming_matches_oneshot () =
  (* Absorbing in arbitrary chunks must equal the one-shot digest. *)
  let data = String.init 10_000 (fun i -> Char.chr (i * 7 mod 256)) in
  let ctx = Sha256.init () in
  let rec feed pos step =
    if pos < String.length data then begin
      let len = min step (String.length data - pos) in
      Sha256.feed_bytes ctx (Bytes.of_string data) ~pos ~len;
      feed (pos + len) ((step * 3 mod 97) + 1)
    end
  in
  feed 0 1;
  check str "streaming" (Sha256.digest_hex data) (Sha256.hex_of_raw (Sha256.finalize ctx))

let test_feed_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "negative pos" (Invalid_argument "Sha256.feed_bytes")
    (fun () -> Sha256.feed_bytes ctx (Bytes.create 4) ~pos:(-1) ~len:2);
  Alcotest.check_raises "overflow" (Invalid_argument "Sha256.feed_bytes") (fun () ->
      Sha256.feed_bytes ctx (Bytes.create 4) ~pos:2 ~len:3);
  (* [pos + len] wraps around here, so the range check must not add. *)
  Alcotest.check_raises "wrapping length" (Invalid_argument "Sha256.feed_bytes")
    (fun () -> Sha256.feed_bytes ctx (Bytes.create 4) ~pos:1 ~len:max_int)

(* Hashing allocates nothing per block: 64 KiB (1,024 blocks) fed into an
   existing context stays under 64 minor words, which leaves room only
   for the boxed floats [Gc.minor_words] itself returns. *)
let test_feed_allocates_nothing () =
  let ctx = Sha256.init () in
  let data = Bytes.make 65_536 'x' in
  let before = Gc.minor_words () in
  Sha256.feed_bytes ctx data ~pos:0 ~len:65_536;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f minor words for 64 KiB" words) true (words < 64.)

let qcheck_streaming =
  QCheck.Test.make ~name:"sha256 chunked = one-shot" ~count:50
    QCheck.(pair (string_of_size (Gen.int_range 0 500)) (int_range 1 64))
    (fun (s, chunk) ->
      let ctx = Sha256.init () in
      let rec feed pos =
        if pos < String.length s then begin
          let len = min chunk (String.length s - pos) in
          Sha256.feed_bytes ctx (Bytes.of_string s) ~pos ~len;
          feed (pos + len)
        end
      in
      feed 0;
      String.equal (Sha256.finalize ctx) (Sha256.digest_string s))

(* The padding boundaries — 55/56 (length field fits / doesn't fit in
   the final block) and 63/64/65 (around a full block) — are where a
   chunked absorption can disagree with the one-shot digest.  Pin every
   split of messages at those lengths, then fuzz arbitrary cut lists. *)
let test_chunk_boundaries () =
  let data = String.init 130 (fun i -> Char.chr (i * 11 mod 256)) in
  List.iter
    (fun total ->
      let msg = String.sub data 0 total in
      let oneshot = Sha256.digest_hex msg in
      for split = 0 to total do
        let ctx = Sha256.init () in
        Sha256.feed_string ctx (String.sub msg 0 split);
        Sha256.feed_string ctx (String.sub msg split (total - split));
        check str
          (Printf.sprintf "len %d split %d" total split)
          oneshot
          (Sha256.hex_of_raw (Sha256.finalize ctx))
      done)
    [ 55; 56; 63; 64; 65; 119; 127; 128; 129 ]

let qcheck_random_splits =
  QCheck.Test.make ~name:"sha256 random split points = one-shot" ~count:100
    QCheck.(
      pair
        (string_of_size (Gen.int_range 0 300))
        (list_of_size (Gen.int_range 0 8) (int_range 0 300)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts =
        List.sort_uniq Int.compare (List.filter (fun c -> c <= n) (0 :: n :: cuts))
      in
      let ctx = Sha256.init () in
      let rec feed = function
        | a :: (b :: _ as rest) ->
            Sha256.feed_string ctx (String.sub s a (b - a));
            feed rest
        | _ -> ()
      in
      feed cuts;
      String.equal (Sha256.finalize ctx) (Sha256.digest_string s))

(* The reference model: FIPS 180-4 §6.2 written out plainly, one round
   per loop step and a fresh schedule per block, sharing no code with
   the library's block kernel. *)
module Reference = struct
  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  let iv =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
       0x1f83d9ab; 0x5be0cd19 |]

  let add x y = (x + y) land 0xFFFFFFFF
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land 0xFFFFFFFF

  (* Adds the compression of the block at [b.(off)..] into [h]. *)
  let compress h b off =
    let w = Array.make 64 0 in
    for t = 0 to 15 do
      w.(t) <- Int32.to_int (Bytes.get_int32_be b (off + (4 * t))) land 0xFFFFFFFF
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- add (add w.(t - 16) s0) (add w.(t - 7) s1)
    done;
    let v = Array.copy h in
    for t = 0 to 63 do
      let a = v.(0) and b = v.(1) and c = v.(2) and e = v.(4) and f = v.(5)
      and g = v.(6) in
      let ch = (e land f) lxor (lnot e land g) in
      let maj = (a land b) lxor (a land c) lxor (b land c) in
      let t1 =
        add (add v.(7) (rotr e 6 lxor rotr e 11 lxor rotr e 25)) (add ch (add k.(t) w.(t)))
      in
      let t2 = add (rotr a 2 lxor rotr a 13 lxor rotr a 22) maj in
      Array.blit v 0 v 1 7;
      v.(4) <- add v.(4) t1;
      v.(0) <- add t1 t2
    done;
    Array.iteri (fun i x -> h.(i) <- add h.(i) x) v

  (* The message, 0x80, zeros up to 56 mod 64, then its bit length as a
     64-bit big-endian integer. *)
  let pad s =
    let n = String.length s in
    let padded = Bytes.make ((n + 9 + 63) / 64 * 64) '\x00' in
    Bytes.blit_string s 0 padded 0 n;
    Bytes.set padded n '\x80';
    Bytes.set_int64_be padded (Bytes.length padded - 8) (Int64.of_int (8 * n));
    padded

  let serialize h =
    let out = Bytes.create 32 in
    Array.iteri (fun i x -> Bytes.set_int32_be out (4 * i) (Int32.of_int x)) h;
    Bytes.to_string out

  let digest s =
    let h = Array.copy iv and padded = pad s in
    for i = 0 to (Bytes.length padded / 64) - 1 do
      compress h padded (64 * i)
    done;
    serialize h
end

(* The library's portable C kernel, which [Sha256] calls only on CPUs
   without the SHA extensions: declared here so both kernels are checked
   on every host that has them. *)
external blocks_portable : int array -> bytes -> int -> int -> unit
  = "caml_sha256_blocks_portable"
[@@noalloc]

let portable_digest s =
  let h = Array.copy Reference.iv and padded = Reference.pad s in
  blocks_portable h padded 0 (Bytes.length padded / 64);
  Reference.serialize h

let qcheck_reference =
  QCheck.Test.make ~name:"sha256 digest = reference model" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun s ->
      let expected = Reference.digest s in
      String.equal (Sha256.digest_string s) expected
      && String.equal (portable_digest s) expected)

(* --- Sink ------------------------------------------------------------------ *)

let test_sink_feeders () =
  let sink = Sink.create () in
  (* 600 bytes in one feed: past the 256-byte initial capacity by more
     than one doubling, so the growth loop runs. *)
  let pad = String.make 600 'p' in
  Sink.feed_str sink pad;
  Sink.feed_str sink "x=";
  Sink.feed_int sink (-42);
  Sink.feed_char sink '|';
  Sink.feed_int sink 0;
  Sink.feed_char sink '|';
  Sink.feed_int sink max_int;
  Sink.feed_char sink '|';
  Sink.feed_int sink min_int;
  check str "ints and growth"
    (Printf.sprintf "%sx=-42|0|%d|%d" pad max_int min_int)
    (Sink.contents sink);
  Alcotest.(check int) "length" (String.length (Sink.contents sink)) (Sink.length sink);
  check str "digest = digest of contents"
    (Sha256.digest_hex (Sink.contents sink))
    (Sha256.hex_of_raw (Sink.digest sink));
  let ctx = Sha256.init () in
  Sink.feed_sha256 sink ctx;
  check str "feed_sha256 streams contents"
    (Sha256.digest_hex (Sink.contents sink))
    (Sha256.hex_of_raw (Sha256.finalize ctx));
  Sink.clear sink;
  Alcotest.(check int) "clear empties" 0 (Sink.length sink);
  Sink.feed_fixed sink (-0.);
  check str "negative zero like %.0f" "-0" (Sink.contents sink);
  Sink.clear sink;
  Sink.feed_fixed sink 1700007200.;
  check str "integral timestamp" "1700007200" (Sink.contents sink)

let qcheck_sink_int =
  QCheck.Test.make ~name:"sink feed_int matches string_of_int" ~count:500
    QCheck.int
    (fun n ->
      let sink = Sink.create () in
      Sink.feed_int sink n;
      String.equal (Sink.contents sink) (string_of_int n))

let qcheck_sink_fixed =
  QCheck.Test.make ~name:"sink feed_fixed matches %.0f" ~count:500 QCheck.float
    (fun x ->
      let sink = Sink.create () in
      Sink.feed_fixed sink x;
      String.equal (Sink.contents sink) (Printf.sprintf "%.0f" x))

(* --- HMAC ----------------------------------------------------------------- *)

(* RFC 4231 test cases. *)
let test_hmac_rfc4231 () =
  check str "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  check str "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  check str "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* case 6: key longer than the block size gets hashed first *)
  check str "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_equal () =
  let a = Hmac.mac ~key:"k" "m" in
  checkb "same" true (Hmac.equal a (Hmac.mac ~key:"k" "m"));
  checkb "different msg" false (Hmac.equal a (Hmac.mac ~key:"k" "m'"));
  checkb "different key" false (Hmac.equal a (Hmac.mac ~key:"k'" "m"));
  checkb "different length" false (Hmac.equal a "short")

(* Reference model: RFC 2104 with one 64-byte pad buffer, filled with
   the (possibly pre-hashed) key, XORed with 0x36 for the inner hash
   and re-XORed into the outer pad, both pad blocks hashed anew for
   every MAC. *)
let reference_mac ~key msg =
  let pad = Bytes.make 64 '\x00' in
  (if String.length key > 64 then Bytes.blit_string (Sha256.digest_string key) 0 pad 0 32
   else Bytes.blit_string key 0 pad 0 (String.length key));
  let xor byte =
    Bytes.iteri (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor byte))) pad
  in
  xor 0x36;
  let inner = Sha256.digest_string (Bytes.to_string pad ^ msg) in
  xor (0x36 lxor 0x5c);
  Sha256.digest_string (Bytes.to_string pad ^ inner)

(* [Hmac.mac], and a signature through a keyring seeded with the same
   key: node 1's secret is the MAC of "node-secret-1" under the seed,
   and its tag the MAC of "sig\x00" and the message under the secret. *)
let qcheck_hmac_reference =
  let gen =
    QCheck.Gen.(pair (string_size (int_range 0 200)) (string_size (int_range 0 300)))
  in
  QCheck.Test.make ~name:"hmac and signature tags equal the pad-buffer reference" ~count:300
    (QCheck.make ~print:(fun (k, m) -> Printf.sprintf "key %S msg %S" k m) gen)
    (fun (key, msg) ->
      let ring = Keyring.create ~seed:key ~n:2 () in
      let secret = reference_mac ~key "node-secret-1" in
      String.equal (Hmac.mac ~key msg) (reference_mac ~key msg)
      && String.equal
           (Signature.sign ring ~signer:1 msg).Signature.tag
           (reference_mac ~key:secret ("sig\x00" ^ msg)))

(* --- Digest32 -------------------------------------------------------------- *)

let test_digest32 () =
  let d = Digest32.of_string "hello" in
  check str "hex" (Sha256.digest_hex "hello") (Digest32.hex d);
  check str "short hex" (String.sub (Sha256.digest_hex "hello") 0 10) (Digest32.short_hex d);
  checkb "roundtrip raw" true (Digest32.equal d (Digest32.of_raw (Digest32.raw d)));
  Alcotest.(check int) "wire size" 32 Digest32.wire_size;
  Alcotest.check_raises "bad raw" (Invalid_argument "Digest32.of_raw: need 32 bytes")
    (fun () -> ignore (Digest32.of_raw "short"))

(* --- Keyring ---------------------------------------------------------------- *)

let test_keyring () =
  let a = Keyring.create ~seed:"s" ~n:9 () in
  let b = Keyring.create ~seed:"s" ~n:9 () in
  let c = Keyring.create ~seed:"t" ~n:9 () in
  let tag ring signer = (Signature.sign ring ~signer "keyring").Signature.tag in
  checkb "deterministic" true (String.equal (tag a 3) (tag b 3));
  checkb "seed-dependent" false (String.equal (tag a 3) (tag c 3));
  checkb "distinct per node" false (String.equal (tag a 0) (tag a 1));
  Alcotest.(check int) "size" 9 (Keyring.size a);
  checkb "mem in range" true (Keyring.mem a 8);
  checkb "mem out of range" false (Keyring.mem a 9);
  let fp = Keyring.fingerprint a 0 in
  Alcotest.(check int) "fingerprint length" 40 (String.length fp);
  checkb "fingerprint hex" true
    (String.for_all (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'A' && ch <= 'F')) fp);
  Alcotest.check_raises "bad id" (Invalid_argument "Keyring.key: bad node id")
    (fun () -> ignore (Keyring.key a 9));
  Alcotest.check_raises "bad n" (Invalid_argument "Keyring.create: n must be positive")
    (fun () -> ignore (Keyring.create ~n:0 ()))

(* --- Signature ---------------------------------------------------------------- *)

let test_signature () =
  let ring = Keyring.create ~n:4 () in
  let s = Signature.sign ring ~signer:2 "message" in
  checkb "verifies" true (Signature.verify ring s "message");
  checkb "wrong message" false (Signature.verify ring s "other");
  checkb "claimed wrong signer" false
    (Signature.verify ring { s with Signature.signer = 1 } "message");
  checkb "forged" false (Signature.verify ring (Signature.forge ~signer:2 "message") "message");
  checkb "unknown signer" false
    (Signature.verify ring { s with Signature.signer = 99 } "message");
  Alcotest.(check int) "kappa" 64 Signature.wire_size;
  checkb "equal" true (Signature.equal s (Signature.sign ring ~signer:2 "message"));
  (* Tags read before the keys kept their pad states. *)
  let tag ring ~signer msg = Sha256.hex_of_raw (Signature.sign ring ~signer msg).Signature.tag in
  check str "pinned tag, default seed"
    "1cd712c7eb03fb605131fdcce29bee0650e3334781bf1cf68bcffafedb3de840"
    (tag (Keyring.create ~n:9 ()) ~signer:0 "message");
  check str "pinned tag, 60-byte message"
    "d3c253129b938cd48c0bc8905d38e4ee4691f1bbad6feaf18e0b4c7da00fc60e"
    (tag (Keyring.create ~seed:"pinned" ~n:9 ()) ~signer:8
       (String.init 60 (fun i -> Char.chr (65 + (i mod 26)))));
  (* A signature resumes one fresh context from the key's pad states
     and copies no message: under the 59 minor words it took when each
     MAC rebuilt the pads and signing prefixed the message. *)
  let msg = String.make 60 'm' in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Signature.sign ring ~signer:2 msg))
  done;
  let words = (Gc.minor_words () -. before) /. 100. in
  checkb (Printf.sprintf "%.1f minor words per signature" words) true (words < 59.);
  (* A check allocates its MAC and nothing in the tag compare: under
     the 44 minor words it took when the compare folded a closure over
     the tag bytes. *)
  let s = Signature.sign ring ~signer:2 msg in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Signature.verify ring s msg))
  done;
  let words = (Gc.minor_words () -. before) /. 100. in
  checkb (Printf.sprintf "%.1f minor words per verify" words) true (words < 40.)

let qcheck_certifies_model =
  let ring = Keyring.create ~seed:"certifies" ~n:5 () in
  (* An entry is (claimed signer, kind): kind 0 signs the message, 1 is
     a forgery, 2 signs another message.  Signer 5 is outside the ring;
     its entry is made by signer 4 and relabelled. *)
  let signature (signer, kind) =
    let by = min signer 4 in
    let s =
      match kind with
      | 0 -> Signature.sign ring ~signer:by "cert"
      | 1 -> Signature.forge ~signer:by "cert"
      | _ -> Signature.sign ring ~signer:by "other"
    in
    { s with Signature.signer }
  in
  let gen =
    QCheck.Gen.(
      pair (int_range 0 6)
        (list_size (int_range 0 7)
           (pair (int_range 0 5) (frequency [ (4, return 0); (1, return 1); (1, return 2) ]))))
  in
  QCheck.Test.make ~name:"signature certificate rule matches a model" ~count:500
    (QCheck.make gen ~print:QCheck.Print.(pair int (list (pair int int))))
    (fun (quorum, entries) ->
      (* The rule restated over the entries: enough of them, each signer
         once, each a ring member's signature on the message. *)
      let once signer = List.length (List.filter (fun (s, _) -> s = signer) entries) = 1 in
      let expected =
        List.length entries >= quorum
        && List.for_all (fun (signer, kind) -> kind = 0 && signer < 5 && once signer) entries
      in
      Signature.certifies ring ~quorum "cert" (List.map signature entries) = expected)

let suite =
  [
    ("sha256 NIST vectors", `Quick, test_nist);
    ("sha256 one million a's", `Slow, test_million_a);
    ("sha256 streaming", `Quick, test_streaming_matches_oneshot);
    ("sha256 feed bounds", `Quick, test_feed_bounds);
    ("sha256 feed allocates nothing per block", `Quick, test_feed_allocates_nothing);
    QCheck_alcotest.to_alcotest qcheck_streaming;
    ("sha256 chunk boundaries", `Quick, test_chunk_boundaries);
    QCheck_alcotest.to_alcotest qcheck_random_splits;
    QCheck_alcotest.to_alcotest qcheck_reference;
    ("sink feeders", `Quick, test_sink_feeders);
    QCheck_alcotest.to_alcotest qcheck_sink_int;
    QCheck_alcotest.to_alcotest qcheck_sink_fixed;
    ("hmac RFC 4231", `Quick, test_hmac_rfc4231);
    ("hmac constant-time equal", `Quick, test_hmac_equal);
    QCheck_alcotest.to_alcotest qcheck_hmac_reference;
    ("digest32", `Quick, test_digest32);
    ("keyring", `Quick, test_keyring);
    ("signature scheme", `Quick, test_signature);
    QCheck_alcotest.to_alcotest qcheck_certifies_model;
  ]
