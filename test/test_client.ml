(* Tests for the Tor client substrate: consensus verification,
   freshness rules, the client state machine, consensus diffs and the
   distribution tier. *)

module Directory = Torclient.Directory
module Flags = Dirdoc.Flags

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let keyring = Crypto.Keyring.create ~seed:"client-tests" ~n:9 ()

let fp i = Printf.sprintf "%040X" i

let entry ?(flags = [ Flags.Running; Flags.Valid ]) ?(bandwidth = 1000)
    ?(exit_policy = Dirdoc.Exit_policy.reject_all) i =
  {
    Dirdoc.Consensus.fingerprint = fp i;
    nickname = Printf.sprintf "relay%d" i;
    flags = Flags.of_list flags;
    version = Dirdoc.Version.make 0 4 8 12;
    protocols = Dirdoc.Relay.default_protocols;
    bandwidth;
    exit_policy;
  }

let guard_flags = [ Flags.Running; Flags.Valid; Flags.Guard; Flags.Stable ]
let exit_flags = [ Flags.Running; Flags.Valid; Flags.Exit ]

let sample_consensus ?(valid_after = 0.) ?(entries = []) () =
  Dirdoc.Consensus.create ~valid_after ~n_votes:9 ~entries

let usable_population () =
  [
    entry ~flags:guard_flags ~bandwidth:5000 1;
    entry ~flags:guard_flags ~bandwidth:100 2;
    entry ~flags:exit_flags ~exit_policy:Dirdoc.Exit_policy.accept_all ~bandwidth:2000 3;
    entry
      ~flags:exit_flags
      ~exit_policy:(Dirdoc.Exit_policy.make Dirdoc.Exit_policy.Accept [ (443, 443) ])
      ~bandwidth:800 4;
    entry ~bandwidth:1500 5;
    entry ~bandwidth:300 6;
  ]

(* --- Directory.verify ---------------------------------------------------------- *)

let test_verify_majority () =
  let c = sample_consensus () in
  let ok = Directory.make keyring c ~signers:[ 0; 1; 2; 3; 4 ] in
  checkb "5 of 9 accepted" true (Directory.verify keyring ~n_authorities:9 ok = Ok ());
  let short = Directory.make keyring c ~signers:[ 0; 1; 2; 3 ] in
  checkb "4 of 9 rejected" true
    (Result.is_error (Directory.verify keyring ~n_authorities:9 short))

let test_verify_duplicates_and_forgeries () =
  let c = sample_consensus () in
  let payload = Dirdoc.Consensus.signing_payload c in
  let sig0 = Crypto.Signature.sign keyring ~signer:0 payload in
  let sc =
    {
      Directory.consensus = c;
      signatures =
        [ sig0; sig0; sig0; sig0; sig0 (* duplicates count once *) ];
    }
  in
  checkb "duplicate signers rejected" true
    (Result.is_error (Directory.verify keyring ~n_authorities:9 sc));
  let forged =
    {
      Directory.consensus = c;
      signatures = List.init 5 (fun i -> Crypto.Signature.forge ~signer:i payload);
    }
  in
  checkb "forged signatures rejected" true
    (Result.is_error (Directory.verify keyring ~n_authorities:9 forged))

let test_verify_wrong_document () =
  let a = sample_consensus () in
  let b = sample_consensus ~valid_after:3600. () in
  let sc_b = Directory.make keyring b ~signers:[ 0; 1; 2; 3; 4 ] in
  (* Signatures from b glued onto a must not verify. *)
  let mixed = { Directory.consensus = a; signatures = sc_b.Directory.signatures } in
  checkb "transplanted signatures rejected" true
    (Result.is_error (Directory.verify keyring ~n_authorities:9 mixed))

(* --- Freshness ---------------------------------------------------------------- *)

let test_freshness_windows () =
  let c = sample_consensus ~valid_after:1000. () in
  checkb "fresh" true (Directory.freshness ~now:2000. c = Directory.Fresh);
  checkb "stale" true (Directory.freshness ~now:(1000. +. 7200.) c = Directory.Stale);
  checkb "expired" true (Directory.freshness ~now:(1000. +. 10801.) c = Directory.Expired);
  checkb "usable stale" true (Directory.usable ~now:(1000. +. 7200.) c);
  checkb "unusable expired" false (Directory.usable ~now:(1000. +. 10801.) c)

let test_freshness_boundaries () =
  (* Both deadlines are strict (half-open intervals): at exactly
     valid_after + 1 h the document is already Stale, and at exactly
     valid_after + 3 h it is already Expired. *)
  let va = 1000. in
  let c = sample_consensus ~valid_after:va () in
  checkb "fresh at valid_after" true (Directory.freshness ~now:va c = Directory.Fresh);
  checkb "fresh just before 1 h" true
    (Directory.freshness ~now:(va +. 3599.999) c = Directory.Fresh);
  checkb "stale at exactly 1 h" true
    (Directory.freshness ~now:(va +. 3600.) c = Directory.Stale);
  checkb "stale just before 3 h" true
    (Directory.freshness ~now:(va +. 10799.999) c = Directory.Stale);
  checkb "expired at exactly 3 h" true
    (Directory.freshness ~now:(va +. 10800.) c = Directory.Expired);
  checkb "still usable at exactly 1 h" true (Directory.usable ~now:(va +. 3600.) c);
  checkb "unusable at exactly 3 h" false (Directory.usable ~now:(va +. 10800.) c)

(* --- Client state machine ------------------------------------------------------- *)

let test_client_lifecycle () =
  let client = Torclient.Client.create ~keyring ~n_authorities:9 in
  checkb "bootstrapping: no circuits" false (Torclient.Client.can_build_circuits client ~now:0.);
  let c1 = sample_consensus ~valid_after:0. ~entries:(usable_population ()) () in
  let sc1 = Directory.make keyring c1 ~signers:[ 0; 1; 2; 3; 4 ] in
  checkb "adopts verified document" true (Torclient.Client.offer client ~now:600. sc1 = Ok ());
  checkb "circuits available" true (Torclient.Client.can_build_circuits client ~now:600.);
  (* An older document is refused. *)
  let old = sample_consensus ~valid_after:(-3600.) () in
  let sc_old = Directory.make keyring old ~signers:[ 0; 1; 2; 3; 4 ] in
  checkb "older document refused" true
    (Result.is_error (Torclient.Client.offer client ~now:700. sc_old));
  (* Time passes: the held document expires and circuits stop. *)
  checkb "expired -> no circuits" false
    (Torclient.Client.can_build_circuits client ~now:11000.);
  (* A fresh hour's document restores service. *)
  let c2 = sample_consensus ~valid_after:10800. ~entries:(usable_population ()) () in
  let sc2 = Directory.make keyring c2 ~signers:[ 2; 3; 4; 5; 6; 7 ] in
  checkb "new hour adopted" true (Torclient.Client.offer client ~now:11400. sc2 = Ok ());
  checkb "circuits again" true (Torclient.Client.can_build_circuits client ~now:11400.)

let test_client_rejects_unverified () =
  let client = Torclient.Client.create ~keyring ~n_authorities:9 in
  let c = sample_consensus ~entries:(usable_population ()) () in
  let sc = Directory.make keyring c ~signers:[ 0; 1 ] in
  checkb "too few signatures refused" true
    (Result.is_error (Torclient.Client.offer client ~now:0. sc));
  checkb "still bootstrapping" false (Torclient.Client.can_build_circuits client ~now:0.)


(* --- Consensus diffs ---------------------------------------------------------- *)

let consensus_pair () =
  let rng = Tor_sim.Rng.of_string_seed "consdiff-tests" in
  let votes =
    Dirdoc.Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:300 ~valid_after:0. ()
  in
  let base = Dirdoc.Aggregate.consensus ~valid_after:0. ~votes:(Array.to_list votes) in
  (* Next hour: ~2% of relays churn out. *)
  let votes2 =
    Array.map
      (fun (v : Dirdoc.Vote.t) ->
        let relays =
          Array.to_list v.Dirdoc.Vote.relays |> List.filteri (fun i _ -> i mod 50 <> 0)
        in
        Dirdoc.Vote.create ~authority:v.Dirdoc.Vote.authority
          ~authority_fingerprint:v.Dirdoc.Vote.authority_fingerprint
          ~nickname:v.Dirdoc.Vote.nickname ~published:v.Dirdoc.Vote.published
          ~valid_after:3600. ~relays)
      votes
  in
  let target = Dirdoc.Aggregate.consensus ~valid_after:3600. ~votes:(Array.to_list votes2) in
  (Dirdoc.Consensus.serialize base, Dirdoc.Consensus.serialize target)

let test_consdiff_roundtrip () =
  let base, target = consensus_pair () in
  let d = Torclient.Consdiff.diff ~base ~target in
  (match Torclient.Consdiff.patch ~base d with
  | Ok patched -> checkb "patch(diff) = target" true (String.equal patched target)
  | Error e -> Alcotest.fail e);
  checkb "diff is much smaller than the document" true
    (Torclient.Consdiff.wire_size d * 4 < String.length target);
  checkb "savings reported" true (Torclient.Consdiff.savings ~base ~target > 0.5)

let test_consdiff_identity () =
  let base, _ = consensus_pair () in
  let d = Torclient.Consdiff.diff ~base ~target:base in
  checki "no commands for identical documents" 0 (List.length d.Torclient.Consdiff.commands);
  match Torclient.Consdiff.patch ~base d with
  | Ok patched -> checkb "identity patch" true (String.equal patched base)
  | Error e -> Alcotest.fail e

let test_consdiff_wrong_base () =
  let base, target = consensus_pair () in
  let d = Torclient.Consdiff.diff ~base ~target in
  checkb "refuses a different base" true
    (Result.is_error (Torclient.Consdiff.patch ~base:target d));
  (* Tampering with the target digest must be caught after patching. *)
  let tampered = { d with Torclient.Consdiff.target_digest = Crypto.Digest32.of_string "x" } in
  checkb "refuses a tampered target digest" true
    (Result.is_error (Torclient.Consdiff.patch ~base tampered))

let test_consdiff_disjoint_documents () =
  (* Even totally different documents roundtrip (as one big rewrite). *)
  let base, _ = consensus_pair () in
  let other =
    Dirdoc.Consensus.serialize
      (Dirdoc.Consensus.create ~valid_after:7200. ~n_votes:9 ~entries:[])
  in
  let d = Torclient.Consdiff.diff ~base ~target:other in
  match Torclient.Consdiff.patch ~base d with
  | Ok patched -> checkb "full rewrite roundtrips" true (String.equal patched other)
  | Error e -> Alcotest.fail e

(* A realistic 9-authority, 1000-relay pair with default cross-authority
   vote divergence and one hour of relay churn between them. *)
let divergent_consensuses () =
  let rng = Tor_sim.Rng.of_string_seed "consdiff-divergent" in
  let votes =
    Dirdoc.Workload.votes ~rng ~divergence:Dirdoc.Workload.default_divergence ~keyring
      ~n_authorities:9 ~n_relays:1000 ~valid_after:0. ()
  in
  let base = Dirdoc.Aggregate.consensus ~valid_after:0. ~votes:(Array.to_list votes) in
  let votes2 =
    Array.map
      (fun (v : Dirdoc.Vote.t) ->
        let relays =
          Array.to_list v.Dirdoc.Vote.relays |> List.filteri (fun i _ -> i mod 40 <> 7)
        in
        Dirdoc.Vote.create ~authority:v.Dirdoc.Vote.authority
          ~authority_fingerprint:v.Dirdoc.Vote.authority_fingerprint
          ~nickname:v.Dirdoc.Vote.nickname ~published:v.Dirdoc.Vote.published
          ~valid_after:3600. ~relays)
      votes
  in
  let target =
    Dirdoc.Aggregate.consensus ~valid_after:3600. ~votes:(Array.to_list votes2)
  in
  (base, target)

let test_consdiff_divergent_1k_roundtrip () =
  let base_c, target_c = divergent_consensuses () in
  let base = Dirdoc.Consensus.serialize base_c in
  let target = Dirdoc.Consensus.serialize target_c in
  checkb "population is ~1k relays" true (Dirdoc.Consensus.n_entries base_c > 900);
  let d = Torclient.Consdiff.diff ~base ~target in
  (match Torclient.Consdiff.patch ~base d with
  | Ok patched -> checkb "patch(diff) = target at 9x1k scale" true (String.equal patched target)
  | Error e -> Alcotest.fail e);
  checkb "diff much smaller than the full document" true
    (Torclient.Consdiff.wire_size d * 5 < String.length target)

let test_consdiff_empty_fast_path () =
  let base, _ = consensus_pair () in
  let d = Torclient.Consdiff.diff ~base ~target:base in
  checki "no commands" 0 (List.length d.Torclient.Consdiff.commands);
  checkb "wire size is just the headers" true
    (Torclient.Consdiff.wire_size d <= (2 * Crypto.Digest32.wire_size) + 32);
  match Torclient.Consdiff.patch ~base d with
  | Ok patched -> checkb "identity patch" true (String.equal patched base)
  | Error e -> Alcotest.fail e

(* --- Distribution tier -------------------------------------------------------- *)

module Dist = Torclient.Distribution

let dist_config =
  {
    Dist.default_config with
    Dist.clients = 100_000;
    caches = 8;
    halt = 10800.;
  }

let run_dist ?(cfg = dist_config) () =
  Dist.run cfg ~available_at:11100. ~full_bytes:600_000 ~diff_bytes:(Some 30_000)
    ~horizon:(11100. +. 7200.)

let test_distribution_deterministic () =
  let a = run_dist () and b = run_dist () in
  checkb "same config, same outcome" true (a = b)

let test_distribution_metrics () =
  let o = run_dist () in
  checki "every client counted" 100_000 o.Dist.clients;
  checki "cohort count" (8 * 64) o.Dist.cohorts;
  (match (o.Dist.time_to_90pct_fresh, o.Dist.time_to_full_recovery) with
  | Some t90, Some tfull ->
      checkb "t90 positive" true (t90 > 0.);
      checkb "t90 <= tfull" true (t90 <= tfull)
  | _ -> Alcotest.fail "flash crowd must fully recover within the horizon");
  (* Every client fetched exactly once, as a diff. *)
  checki "diff fetches" 100_000 o.Dist.diff_fetches;
  checki "no full fetches" 0 o.Dist.full_fetches;
  checki "bytes = clients x diff size" (100_000 * 30_000) o.Dist.bytes_served;
  checkb "halt winds up retries" true (o.Dist.failed_attempts > 0);
  checkb "mean <= hottest cache" true
    (o.Dist.bytes_per_cache <= float_of_int o.Dist.bytes_per_cache_max)

let test_distribution_diffs_off () =
  let o = run_dist ~cfg:{ dist_config with Dist.diffs = false } () in
  checki "full fetches" 100_000 o.Dist.full_fetches;
  checki "no diff fetches" 0 o.Dist.diff_fetches;
  checki "bytes = clients x full size" (100_000 * 600_000) o.Dist.bytes_served

let test_distribution_validation () =
  let reject msg cfg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore
          (Dist.run cfg ~available_at:0. ~full_bytes:1000 ~diff_bytes:None ~horizon:10.))
  in
  reject "Distribution: clients must be positive" { dist_config with Dist.clients = 0 };
  reject "Distribution: caches must be positive" { dist_config with Dist.caches = 0 };
  reject "Distribution: negative halt" { dist_config with Dist.halt = -1. };
  reject "Distribution: halt must be finite" { dist_config with Dist.halt = nan };
  reject "Distribution: halt must be finite" { dist_config with Dist.halt = infinity };
  Alcotest.check_raises "bad full_bytes"
    (Invalid_argument "Distribution.run: full_bytes must be positive") (fun () ->
      ignore
        (Dist.run dist_config ~available_at:0. ~full_bytes:0 ~diff_bytes:None ~horizon:10.))

let test_distribution_canonical_distinct () =
  let base = Dist.canonical_config dist_config in
  List.iter
    (fun (label, cfg) ->
      checkb label false (String.equal base (Dist.canonical_config cfg)))
    [
      ("clients change", { dist_config with Dist.clients = 99_999 });
      ("caches change", { dist_config with Dist.caches = 9 });
      ("halt change", { dist_config with Dist.halt = 0. });
      ("diffs change", { dist_config with Dist.diffs = false });
    ]

let suite =
  [
    ("verify: majority rule", `Quick, test_verify_majority);
    ("verify: duplicates and forgeries", `Quick, test_verify_duplicates_and_forgeries);
    ("verify: transplanted signatures", `Quick, test_verify_wrong_document);
    ("freshness windows", `Quick, test_freshness_windows);
    ("freshness boundary semantics", `Quick, test_freshness_boundaries);
    ("client lifecycle", `Quick, test_client_lifecycle);
    ("client rejects unverified", `Quick, test_client_rejects_unverified);
    ("consdiff roundtrip", `Quick, test_consdiff_roundtrip);
    ("consdiff identity", `Quick, test_consdiff_identity);
    ("consdiff rejects wrong base/target", `Quick, test_consdiff_wrong_base);
    ("consdiff disjoint documents", `Quick, test_consdiff_disjoint_documents);
    ("consdiff divergent 9x1k roundtrip", `Slow, test_consdiff_divergent_1k_roundtrip);
    ("consdiff empty-diff fast path", `Quick, test_consdiff_empty_fast_path);
    ("distribution: deterministic", `Quick, test_distribution_deterministic);
    ("distribution: flash-crowd metrics", `Quick, test_distribution_metrics);
    ("distribution: full fetches without diffs", `Quick, test_distribution_diffs_off);
    ("distribution: config validation", `Quick, test_distribution_validation);
    ("distribution: canonical config distinct", `Quick, test_distribution_canonical_distinct);
  ]
