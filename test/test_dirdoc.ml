(* Tests for the directory-document substrate: flags, versions, exit
   policies, timestamps, votes (incl. serialize/parse roundtrips), and
   every Figure 2 aggregation rule. *)

open Dirdoc

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- Flags --------------------------------------------------------------- *)

let test_flags_basic () =
  let f = Flags.of_list [ Flags.Fast; Flags.Running; Flags.Valid ] in
  checkb "mem" true (Flags.mem Flags.Fast f);
  checkb "not mem" false (Flags.mem Flags.Guard f);
  checki "cardinal" 3 (Flags.cardinal f);
  checks "to_string sorted" "Fast Running Valid" (Flags.to_string f);
  checkb "remove" false (Flags.mem Flags.Fast (Flags.remove Flags.Fast f));
  checki "all flags" 13 (List.length Flags.all)

let test_flags_parse () =
  (match Flags.of_string "Exit Fast Guard" with
  | Ok f ->
      checkb "parsed" true (Flags.mem Flags.Exit f && Flags.mem Flags.Guard f)
  | Error e -> Alcotest.fail e);
  (match Flags.of_string "Exit Bogus" with
  | Ok _ -> Alcotest.fail "accepted unknown flag"
  | Error _ -> ());
  match Flags.of_string "" with
  | Ok f -> checkb "empty" true (Flags.equal f Flags.empty)
  | Error e -> Alcotest.fail e

let qcheck_flags_roundtrip =
  let gen_flags =
    QCheck.map
      (fun bits -> List.filteri (fun i _ -> bits land (1 lsl i) <> 0) Flags.all)
      QCheck.(int_bound 8191)
  in
  QCheck.Test.make ~name:"flags string roundtrip" ~count:100 gen_flags (fun flags ->
      let set = Flags.of_list flags in
      match Flags.of_string (Flags.to_string set) with
      | Ok back -> Flags.equal set back
      | Error _ -> false)

(* --- Version ---------------------------------------------------------------- *)

let test_version_order () =
  let v a = match Version.of_string a with Ok v -> v | Error e -> Alcotest.fail e in
  checkb "patch" true (Version.compare (v "0.4.8.12") (v "0.4.8.11") > 0);
  checkb "minor" true (Version.compare (v "0.5.0.0") (v "0.4.9.9") > 0);
  checkb "alpha before release" true (Version.compare (v "0.4.8.12-alpha") (v "0.4.8.12") < 0);
  checkb "equal" true (Version.equal (v "0.4.8.12") (v "0.4.8.12"));
  checks "roundtrip tag" "0.4.9.1-alpha" (Version.to_string (v "0.4.9.1-alpha"))

let test_version_invalid () =
  List.iter
    (fun s ->
      match Version.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    (* Components are plain decimals: no base prefix, sign or
       underscore. *)
    [ "1.2.3"; "a.b.c.d"; ""; "1.2.3.4.5"; "0x0.4.8.12"; "+0.4.8.12"; "0.4.8.1_2";
      "0.4.8.0b11"; "0.4.0o7.12"; " 0.4.8.12"; "0.4.8.12 " ]

(* --- Exit policy --------------------------------------------------------------- *)

let test_exit_policy_normalize () =
  let p = Exit_policy.make Exit_policy.Accept [ (443, 443); (80, 80); (81, 90); (85, 100) ] in
  checks "merged+sorted" "accept 80-100,443" (Exit_policy.to_string p);
  checkb "ranges" true (Exit_policy.ranges p = [ (80, 100); (443, 443) ])

let test_exit_policy_parse () =
  (match Exit_policy.of_string "accept 80,443,8000-8100" with
  | Ok p ->
      checkb "ranges" true (Exit_policy.ranges p = [ (80, 80); (443, 443); (8000, 8100) ]);
      checks "canonical" "accept 80,443,8000-8100" (Exit_policy.to_string p)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Exit_policy.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ "allow 80"; "accept"; "accept 0-10"; "accept 80-99999"; "accept x"; "accept 0x50";
      "accept +80"; "accept 8_0"; "accept 80-0x1BB"; "reject 0b1010000" ]

let test_exit_policy_compare () =
  let a = Exit_policy.make Exit_policy.Accept [ (80, 80) ] in
  let r = Exit_policy.make Exit_policy.Reject [ (80, 80) ] in
  (* "reject ..." > "accept ..." lexicographically. *)
  checkb "lexicographic" true (Exit_policy.compare r a > 0)

(* --- Timefmt ---------------------------------------------------------------- *)

let test_timefmt_known () =
  checks "epoch" "1970-01-01 00:00:00" (Timefmt.to_string 0.);
  checks "y2k26" "2026-01-01 01:00:00"
    (match Timefmt.of_string "2026-01-01 01:00:00" with
    | Ok t -> Timefmt.to_string t
    | Error e -> e);
  checki "leap day" (Timefmt.days_from_civil ~year:2024 ~month:3 ~day:1)
    (Timefmt.days_from_civil ~year:2024 ~month:2 ~day:29 + 1)

(* Only plain decimal fields between the fixed separators, and only
   dates the calendar has. *)
let test_timefmt_strict () =
  let parses s = Result.is_ok (Timefmt.of_string s) in
  List.iter
    (fun s -> checkb (s ^ " rejected") false (parses s))
    [
      "2026-01-01 -1:00:00";
      "0x7E-01-01 00:00:00";
      "+026-01-01 00:00:00";
      "2026-01-01 0_:00:00";
      "2026-02-31 00:00:00";
      "2025-02-29 00:00:00";
      "2026-04-31 00:00:00";
      "2026-00-10 00:00:00";
      "2026-13-01 00:00:00";
      "2026-01-00 00:00:00";
      "2026-01-01 24:00:00";
      "2026x01-01 00:00:00";
      "2026-01-01T00:00:00";
    ];
  List.iter
    (fun s -> checkb (s ^ " accepted") true (parses s))
    [ "2024-02-29 00:00:00"; "2000-02-29 23:59:59"; "0000-01-01 00:00:00"; "9999-12-31 23:59:59" ]

let qcheck_timefmt_roundtrip =
  QCheck.Test.make ~name:"timefmt roundtrip" ~count:200
    QCheck.(int_range 0 4102444800 (* year 2100 *))
    (fun secs ->
      let s = Timefmt.to_string (float_of_int secs) in
      match Timefmt.of_string s with
      | Ok back -> int_of_float back = secs
      | Error _ -> false)

(* A timestamp with one to three bytes replaced: whatever still parses
   must render back to the same text. *)
let qcheck_timefmt_mutated =
  let alphabet = "0123456789-+_: xX" in
  let gen =
    QCheck.Gen.(
      let* secs = int_range 0 4102444800 in
      let byte =
        oneof [ map (String.get alphabet) (int_bound (String.length alphabet - 1)); char ]
      in
      let* edits = list_size (int_range 1 3) (pair (int_bound 18) byte) in
      let b = Bytes.of_string (Timefmt.to_string (float_of_int secs)) in
      List.iter (fun (pos, c) -> Bytes.set b pos c) edits;
      return (Bytes.to_string b))
  in
  QCheck.Test.make ~name:"timefmt: what parses renders back" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s -> match Timefmt.of_string s with Ok t -> Timefmt.to_string t = s | Error _ -> true)

let qcheck_civil_inverse =
  QCheck.Test.make ~name:"civil_from_days inverse" ~count:200
    QCheck.(int_range (-100000) 100000)
    (fun days ->
      let year, month, day = Timefmt.civil_from_days days in
      Timefmt.days_from_civil ~year ~month ~day = days)

(* --- Relay ---------------------------------------------------------------- *)

let sample_relay ?(fingerprint = String.make 40 'A') ?(bandwidth = 1000) ?measured
    ?(flags = Flags.of_list [ Flags.Running; Flags.Valid ])
    ?(version = Version.make 0 4 8 12) ?protocols ?(exit_policy = Exit_policy.reject_all)
    ?(nickname = "relay") () =
  Relay.make ~fingerprint ~nickname ~address:"192.0.2.1" ~or_port:9001 ~published:0.
    ~flags ~version ?protocols ~bandwidth ?measured ~exit_policy ()

let test_relay_validation () =
  Alcotest.check_raises "bad fingerprint"
    (Invalid_argument "Relay.make: fingerprint must be 40 uppercase hex chars")
    (fun () -> ignore (sample_relay ~fingerprint:"xyz" ()));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Relay.make: negative bandwidth") (fun () ->
      ignore (sample_relay ~bandwidth:(-1) ()))

(* --- Vote ---------------------------------------------------------------- *)

let fp i = Printf.sprintf "%040X" i

let sample_vote ?(authority = 0) ?(n_relays = 5) () =
  let relays = List.init n_relays (fun i -> sample_relay ~fingerprint:(fp i) ()) in
  Vote.create ~authority ~authority_fingerprint:(fp 1000) ~nickname:"moria1"
    ~published:1000. ~valid_after:4600. ~relays

let test_vote_create () =
  let v = sample_vote () in
  checki "n_relays" 5 (Vote.n_relays v);
  checkb "sorted" true
    (let rec sorted i =
       i >= Array.length v.Vote.relays - 1
       || Relay.compare_fingerprint v.Vote.relays.(i) v.Vote.relays.(i + 1) < 0 && sorted (i + 1)
     in
     sorted 0);
  checkb "find hit" true (Vote.find v ~fingerprint:(fp 3) <> None);
  checkb "find miss" true (Vote.find v ~fingerprint:(fp 99) = None);
  checki "wire size" (2048 + (5 * Relay.entry_wire_bytes)) (Vote.wire_size v);
  Alcotest.(check (float 0.)) "validity window" (4600. +. (3. *. 3600.)) v.Vote.valid_until

let test_vote_duplicate_raises () =
  let relays = [ sample_relay (); sample_relay () ] in
  Alcotest.check_raises "dup" (Invalid_argument "Vote.create: duplicate relay fingerprint")
    (fun () ->
      ignore
        (Vote.create ~authority:0 ~authority_fingerprint:(fp 1) ~nickname:"x"
           ~published:0. ~valid_after:0. ~relays))

let test_vote_digest_sensitivity () =
  let v1 = sample_vote () in
  let v2 = sample_vote () in
  checkb "deterministic digest" true (Vote.equal v1 v2);
  let v3 = sample_vote ~n_relays:4 () in
  checkb "relay change alters digest" false (Vote.equal v1 v3);
  let v4 = sample_vote ~authority:1 () in
  checkb "authority alters digest" false (Vote.equal v1 v4)

let test_vote_serialize_roundtrip () =
  let relays =
    [
      sample_relay ~fingerprint:(fp 1) ~bandwidth:500 ~measured:450
        ~flags:(Flags.of_list [ Flags.Exit; Flags.Fast; Flags.Running ])
        ~exit_policy:(Exit_policy.make Exit_policy.Accept [ (80, 80); (443, 443) ])
        ();
      sample_relay ~fingerprint:(fp 2) ~version:(Version.make ~tag:"alpha" 0 4 9 1) ();
    ]
  in
  let v =
    Vote.create ~authority:3 ~authority_fingerprint:(fp 1003) ~nickname:"gabelmoo"
      ~published:1767229200. ~valid_after:1767232800. ~relays
  in
  match Vote.parse (Vote.serialize v) with
  | Ok back ->
      checkb "content equal" true (Vote.equal v back);
      checki "authority" 3 back.Vote.authority;
      checks "nickname" "gabelmoo" back.Vote.nickname
  | Error e -> Alcotest.fail e

let test_vote_parse_garbage () =
  (match Vote.parse "not a vote" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (match Vote.parse "" with Ok _ -> Alcotest.fail "accepted empty" | Error _ -> ());
  (* The dir-source authority id is a plain decimal. *)
  let with_authority id =
    String.split_on_char '\n' (Vote.serialize (sample_vote ()))
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ "dir-source"; nickname; _; fingerprint ] ->
               String.concat " " [ "dir-source"; nickname; id; fingerprint ]
           | _ -> line)
    |> String.concat "\n" |> Vote.parse
  in
  (match with_authority "3" with
  | Ok v -> checki "decimal authority id" 3 v.Vote.authority
  | Error e -> Alcotest.fail e);
  List.iter
    (fun id ->
      match with_authority id with
      | Ok _ -> Alcotest.fail ("accepted authority id " ^ id)
      | Error _ -> ())
    [ "0x3"; "+3"; "3_"; "-3"; "" ]

(* A field line belongs to the entry its [r] line opened: one before
   the first entry or after [directory-footer] is rejected, not folded
   into a neighbouring relay. *)
let test_vote_parse_outside_entry () =
  let lines = Array.of_list (String.split_on_char '\n' (Vote.serialize (sample_vote ()))) in
  let find prefix =
    let rec go i = if String.starts_with ~prefix lines.(i) then i else go (i + 1) in
    go 0
  in
  let parse lines = Vote.parse (String.concat "\n" (Array.to_list lines)) in
  (match parse lines with Ok _ -> () | Error e -> Alcotest.fail e);
  let r0 = find "r " and footer = find "directory-footer" in
  checks "relay 0's s line follows its r line" "s " (String.sub lines.(r0 + 1) 0 2);
  let s_above_r = Array.copy lines in
  s_above_r.(r0) <- lines.(r0 + 1);
  s_above_r.(r0 + 1) <- lines.(r0);
  let s_after_footer =
    Array.concat
      [
        Array.sub lines 0 (footer + 1);
        [| lines.(r0 + 1) |];
        Array.sub lines (footer + 1) (Array.length lines - footer - 1);
      ]
  in
  List.iter
    (fun (label, doc) ->
      match parse doc with Ok _ -> Alcotest.fail (label ^ " accepted") | Error _ -> ())
    [ ("s line above its r line", s_above_r); ("s line after directory-footer", s_after_footer) ]

let qcheck_vote_roundtrip =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 0 20 in
        let* seed = int_range 0 10000 in
        return (n, seed))
  in
  QCheck.Test.make ~name:"vote serialize/parse roundtrip (random workloads)" ~count:20 gen
    (fun (n, seed) ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let relays = Workload.relays ~rng ~n ~published:1767229200. in
      let v =
        Vote.create ~authority:0 ~authority_fingerprint:(fp 1000) ~nickname:"moria1"
          ~published:1767229200. ~valid_after:1767232800. ~relays
      in
      match Vote.parse (Vote.serialize v) with
      | Ok back -> Vote.equal v back
      | Error _ -> false)

(* --- Aggregate: the Figure 2 rules --------------------------------------------- *)

let vote_of ~authority relays =
  Vote.create ~authority ~authority_fingerprint:(fp (1000 + authority))
    ~nickname:(Workload.authority_nickname authority) ~published:0. ~valid_after:0.
    ~relays

(* The entry [Aggregate.consensus] makes of one relay's
   [(authority, relay)] listings, each in a vote of its own. *)
let aggregate listings =
  let votes = List.map (fun (authority, r) -> vote_of ~authority [ r ]) listings in
  let fingerprint = (snd (List.hd listings)).Relay.fingerprint in
  match Consensus.find (Aggregate.consensus ~valid_after:0. ~votes) ~fingerprint with
  | Some entry -> entry
  | None -> Alcotest.fail "relay listed by every vote left out"

let test_inclusion_majority () =
  (* A strict majority of the votes includes a relay; half of them, or
     the paper's reading of ⌊n/2⌋, does not. *)
  let listed = sample_relay ~fingerprint:(fp 1) () in
  List.iter
    (fun (n, majority) ->
      let entries k =
        let votes =
          List.init n (fun a -> vote_of ~authority:a (if a < k then [ listed ] else []))
        in
        Consensus.n_entries (Aggregate.consensus ~valid_after:0. ~votes)
      in
      checki (Printf.sprintf "%d of %d include" majority n) 1 (entries majority);
      checki (Printf.sprintf "%d of %d exclude" (majority - 1) n) 0 (entries (majority - 1)))
    [ (9, 5); (8, 5); (7, 4); (5, 3) ]

let test_nickname_largest_authority () =
  let entry =
    aggregate
      [
        (2, sample_relay ~nickname:"fromTwo" ());
        (7, sample_relay ~nickname:"fromSeven" ());
        (4, sample_relay ~nickname:"fromFour" ());
      ]
  in
  checks "largest authority names" "fromSeven" entry.Consensus.nickname

let test_flag_majority_and_tie () =
  let with_flags flags = sample_relay ~flags:(Flags.of_list flags) () in
  let entry =
    aggregate
      [
        (0, with_flags [ Flags.Fast; Flags.Guard ]);
        (1, with_flags [ Flags.Fast; Flags.Guard ]);
        (2, with_flags [ Flags.Fast ]);
        (3, with_flags [ Flags.Guard ]);
      ]
  in
  (* Fast: 3/4 -> set.  Guard: 3/4 -> set. *)
  checkb "fast majority" true (Flags.mem Flags.Fast entry.Consensus.flags);
  let tie = aggregate [ (0, with_flags [ Flags.Fast ]); (1, with_flags []) ] in
  (* 1 of 2 is a tie: flag stays unset (Figure 2). *)
  checkb "tie unset" false (Flags.mem Flags.Fast tie.Consensus.flags)

let test_version_popular_and_tie () =
  let with_version v = sample_relay ~version:v () in
  let old = Version.make 0 4 7 16 and new_ = Version.make 0 4 8 12 in
  let entry =
    aggregate [ (0, with_version old); (1, with_version old); (2, with_version new_) ]
  in
  checks "popular wins" (Version.to_string old)
    (Version.to_string entry.Consensus.version);
  let tie = aggregate [ (0, with_version old); (1, with_version new_) ] in
  checks "tie takes larger" (Version.to_string new_)
    (Version.to_string tie.Consensus.version);
  let tie =
    aggregate
      [ (0, sample_relay ~protocols:"Link=1-5" ()); (1, sample_relay ~protocols:"Link=1-4" ()) ]
  in
  checks "protocols tie takes larger" "Link=1-5" tie.Consensus.protocols

let test_exit_policy_tie () =
  let a = Exit_policy.make Exit_policy.Accept [ (80, 80) ] in
  let r = Exit_policy.reject_all in
  let tie =
    aggregate [ (0, sample_relay ~exit_policy:a ()); (1, sample_relay ~exit_policy:r ()) ]
  in
  (* "reject 1-65535" > "accept 80" lexicographically. *)
  checks "lexicographically larger wins" (Exit_policy.to_string r)
    (Exit_policy.to_string tie.Consensus.exit_policy)

let test_bandwidth_median () =
  let bw ~advertised ?measured () = sample_relay ~bandwidth:advertised ?measured () in
  let median listings =
    (aggregate (List.mapi (fun a r -> (a, r)) listings)).Consensus.bandwidth
  in
  checki "median of measured" 20
    (median
       [ bw ~advertised:100 ~measured:10 (); bw ~advertised:100 ~measured:30 ();
         bw ~advertised:100 ~measured:20 () ]);
  checki "even count takes the lower" 2
    (median (List.map (fun m -> bw ~advertised:100 ~measured:m ()) [ 4; 2; 3; 1 ]));
  checki "single" 7 (median [ bw ~advertised:100 ~measured:7 () ]);
  checki "falls back to advertised" 200
    (median [ bw ~advertised:100 (); bw ~advertised:300 (); bw ~advertised:200 () ]);
  checki "measured preferred when present" 50
    (median [ bw ~advertised:999 ~measured:50 (); bw ~advertised:999 () ])

let test_aggregate_errors () =
  Alcotest.check_raises "duplicate authority"
    (Invalid_argument "Aggregate.consensus: duplicate authority vote") (fun () ->
      ignore
        (Aggregate.consensus ~valid_after:0.
           ~votes:[ vote_of ~authority:1 []; vote_of ~authority:1 [] ]))

let qcheck_consensus_order_independent =
  QCheck.Test.make ~name:"consensus independent of vote order" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let keyring = Crypto.Keyring.create ~n:9 () in
      let votes =
        Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:50 ~valid_after:0. ()
        |> Array.to_list
      in
      let shuffled =
        let arr = Array.of_list votes in
        Tor_sim.Rng.shuffle rng arr;
        Array.to_list arr
      in
      Consensus.equal
        (Aggregate.consensus ~valid_after:0. ~votes)
        (Aggregate.consensus ~valid_after:0. ~votes:shuffled))

(* The equivocation rule restated: an authority's second, conflicting
   vote is its own vote without the first relay. *)
let reference_variant (v : Vote.t) =
  Vote.create ~authority:v.authority ~authority_fingerprint:v.authority_fingerprint
    ~nickname:v.nickname ~published:v.published ~valid_after:v.valid_after
    ~relays:(List.tl (Array.to_list v.relays))

(* Two domains aggregating the same vote sets, and asking for every
   authority's variant, through one population's memo: every document
   equals a fresh merge and every variant the fresh rule, and both
   domains get the one document stored for each key and the one vote
   stored for each authority. *)
let test_memo_across_domains () =
  let rng = Tor_sim.Rng.of_string_seed "memo-domains" in
  let keyring = Crypto.Keyring.create ~n:9 () in
  let votes = Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:200 ~valid_after:0. () in
  let all = Array.to_list votes in
  let sets = all :: List.map (fun (v : Vote.t) -> List.filter (( != ) v) all) all in
  let memo = Aggregate.Memo.of_population votes in
  checkb "one memo per population" true (memo == Aggregate.Memo.of_population votes);
  let aggregate () =
    ( List.map (fun (v : Vote.t) -> Aggregate.variant ~memo v.authority) all,
      List.map (fun votes -> Aggregate.consensus_memo ~memo ~valid_after:0. ~votes) sets )
  in
  let other = Domain.spawn aggregate in
  let variants_here, here = aggregate () in
  let variants_there, there = Domain.join other in
  List.iteri
    (fun i (votes, (a, b)) ->
      let fresh = Aggregate.consensus ~valid_after:0. ~votes in
      checkb (Printf.sprintf "set %d: equal to a fresh merge" i) true
        (Consensus.equal fresh a && Consensus.equal fresh b);
      checkb (Printf.sprintf "set %d: one stored document" i) true (a == b))
    (List.combine sets (List.combine here there));
  List.iter
    (fun ((v : Vote.t), (a, b)) ->
      checkb (Printf.sprintf "authority %d: variant equals the fresh rule" v.authority) true
        (Crypto.Digest32.equal (reference_variant v).Vote.digest a.Vote.digest);
      checkb (Printf.sprintf "authority %d: one stored variant" v.authority) true (a == b))
    (List.combine all (List.combine variants_here variants_there))

(* --- Consensus document --------------------------------------------------------- *)

let test_consensus_validity_window () =
  let c = Consensus.create ~valid_after:1000. ~n_votes:9 ~entries:[] in
  checkb "fresh before 1h" true (Consensus.is_fresh c ~now:2000.);
  checkb "stale after 1h" false (Consensus.is_fresh c ~now:(1000. +. 3601.));
  checkb "valid before 3h" true (Consensus.is_valid c ~now:(1000. +. 10000.));
  checkb "invalid after 3h" false (Consensus.is_valid c ~now:(1000. +. 10801.))

let test_consensus_serialize () =
  let entries =
    [
      {
        Consensus.fingerprint = fp 1;
        nickname = "relay1";
        flags = Flags.of_list [ Flags.Running ];
        version = Version.make 0 4 8 12;
        protocols = Relay.default_protocols;
        bandwidth = 100;
        exit_policy = Exit_policy.reject_all;
      };
    ]
  in
  let c = Consensus.create ~valid_after:1767232800. ~n_votes:9 ~entries in
  let text = Consensus.serialize c in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "has status line" true (contains "vote-status consensus");
  checkb "has relay" true (contains "r relay1");
  checkb "find" true (Consensus.find c ~fingerprint:(fp 1) <> None)

(* The whole serialized text of an aggregated 300-relay consensus, by
   length and SHA-256: every header line, flag set, version tag, exit
   policy range and the footer take part. *)
let test_consensus_text_pinned () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let votes =
    Workload.votes ~rng:(Tor_sim.Rng.of_string_seed "consensus-text-pin")
      ~divergence:Workload.default_divergence ~keyring ~n_authorities:9 ~n_relays:300
      ~valid_after:1767232800. ()
  in
  let c = Aggregate.consensus ~valid_after:1767232800. ~votes:(Array.to_list votes) in
  let text = Consensus.serialize c in
  checki "text length" 81731 (String.length text);
  checks "text digest" "155ab054a3d3f38e01946d9f02fae9d39b424fc011af9aa21ffbe041261ec4e5"
    (Crypto.Digest32.hex (Crypto.Digest32.of_string text))

(* --- Workload ---------------------------------------------------------------- *)

let test_workload_determinism () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let votes seed =
    Workload.votes ~rng:(Tor_sim.Rng.of_string_seed seed) ~keyring ~n_authorities:9
      ~n_relays:100 ~valid_after:3600. ()
  in
  let a = votes "s1" and b = votes "s1" and c = votes "s2" in
  checkb "same seed same votes" true (Vote.equal a.(0) b.(0));
  checkb "different seed differs" false (Vote.equal a.(0) c.(0))

let test_workload_divergence () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let rng = Tor_sim.Rng.of_string_seed "w" in
  let identical =
    Workload.votes ~rng ~divergence:Workload.no_divergence ~keyring ~n_authorities:9
      ~n_relays:50 ~valid_after:3600. ()
  in
  (* With no divergence every authority's relay list is identical
     (though vote digests still differ by authority identity). *)
  checki "same relay count" (Vote.n_relays identical.(0)) (Vote.n_relays identical.(8));
  let all_equal =
    Array.for_all
      (fun (v : Vote.t) ->
        Array.for_all2 Relay.equal v.Vote.relays identical.(0).Vote.relays)
      identical
  in
  checkb "no divergence -> identical views" true all_equal;
  let divergent =
    Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:200 ~valid_after:3600. ()
  in
  let some_differ =
    Array.exists
      (fun (v : Vote.t) ->
        Vote.n_relays v <> Vote.n_relays divergent.(0)
        || not (Array.for_all2 Relay.equal v.Vote.relays divergent.(0).Vote.relays))
      divergent
  in
  checkb "default divergence -> views differ" true some_differ

let test_workload_aggregatable () =
  (* Divergent views must still produce a consensus covering most of
     the ground truth: inclusion is majority-based. *)
  let keyring = Crypto.Keyring.create ~n:9 () in
  let rng = Tor_sim.Rng.of_string_seed "agg" in
  let votes =
    Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:300 ~valid_after:3600. ()
  in
  let c = Aggregate.consensus ~valid_after:3600. ~votes:(Array.to_list votes) in
  checkb "most relays survive aggregation" true (Consensus.n_entries c > 280)

(* The population layer's output, pinned: the nine vote digests of one
   seeded 2,000-relay population with default divergence.  Any change to
   the ground truth, the views, their RNG stream or the vote encoding
   moves these. *)
let test_workload_pinned_digests () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let votes =
    Workload.votes ~rng:(Tor_sim.Rng.of_string_seed "population-pin") ~keyring
      ~n_authorities:9 ~n_relays:2000 ~valid_after:1700007200. ()
  in
  let expected =
    [ "65c93d7ce7734d56d73f7abe69ef4a7c91644649dc801d7655ede9315b3c7c57";
      "654346b050a47c7a37238cf39197d27696de4bea029fc8c95da27bedaf88d28a";
      "8041dda9f480577e2cc31ae767ffa10aefc9ccd0b58a7d7e2f347565ed6bc1b2";
      "6739fec2e017ee8aa81df9a40e702ed43bbda7746b96f3c6daf7c48da620bc42";
      "5f262593ef2ae39b279ba4d847b9ec924a967788b090678619a15e37f16ed09f";
      "e79dadd27a8728c9f6ae516f035383e373efc458cad005128b8b8403d48f90b8";
      "cda2180711717a40c7fa146689fdb5acf01429133dc985c0b57edbc3b2572447";
      "de8603effe0736621bdd7f6bb63baee21e98479c58059e7fc0db60fdce0865c5";
      "b19531382b446ed0760c14f097f0ff224e2f9b362018796b2f6f96a5a9a7d644" ]
  in
  List.iteri
    (fun i hex ->
      checks (Printf.sprintf "vote %d" i) hex (Crypto.Digest32.hex (Vote.digest votes.(i))))
    expected

(* Reference model of one authority's view: every ground-truth relay,
   in ground-truth order, is missed or perturbed and rebuilt through
   [Relay.make], which recomputes the descriptor digest. *)
let reference_view ~rng ~(divergence : Workload.divergence) truth =
  let module Rng = Tor_sim.Rng in
  let flippable = [ Flags.Fast; Flags.Stable; Flags.Guard; Flags.HSDir ] in
  List.filter_map
    (fun (r : Relay.t) ->
      if Rng.float rng 1.0 < divergence.missing_prob then None
      else
        let flags =
          if Rng.float rng 1.0 < divergence.flag_flip_prob then
            let flag = List.nth flippable (Rng.int rng (List.length flippable)) in
            if Flags.mem flag r.flags then Flags.remove flag r.flags
            else Flags.add flag r.flags
          else r.flags
        in
        let measured =
          if Rng.float rng 1.0 < divergence.unmeasured_prob then None
          else
            Option.map
              (fun m ->
                let jitter = Rng.gaussian rng ~mean:1.0 ~stddev:divergence.bw_jitter in
                Stdlib.max 1 (int_of_float (float_of_int m *. Float.max 0.1 jitter)))
              r.measured
        in
        Some
          (Relay.make ~fingerprint:r.fingerprint ~nickname:r.nickname ~address:r.address
             ~or_port:r.or_port ~dir_port:r.dir_port ~published:r.published ~flags
             ~version:r.version ~protocols:r.protocols ~bandwidth:r.bandwidth ?measured
             ~exit_policy:r.exit_policy ()))
    truth

(* [authority_view] against the model, fed the same RNG: the same relays
   (compared by fingerprint order), every field and descriptor digest
   equal, and the stream left at the same point.  Every third relay has
   no measurement, and one divergence is heavy, so each branch runs. *)
let qcheck_authority_view_model =
  let divergences =
    [| Workload.default_divergence;
       Workload.no_divergence;
       { Workload.missing_prob = 0.3; bw_jitter = 0.5; flag_flip_prob = 0.5;
         unmeasured_prob = 0.3 } |]
  in
  QCheck.Test.make ~name:"authority view matches the reference model" ~count:40
    QCheck.(triple small_nat (int_range 0 80) (int_bound (Array.length divergences - 1)))
    (fun (seed, n, d) ->
      let divergence = divergences.(d) in
      let truth =
        Workload.relays ~rng:(Tor_sim.Rng.create (Int64.of_int seed)) ~n ~published:3000.
        |> List.mapi (fun i (r : Relay.t) ->
               if i mod 3 = 0 then { r with Relay.measured = None } else r)
      in
      let rng_a = Tor_sim.Rng.of_string_seed (string_of_int seed) in
      let rng_b = Tor_sim.Rng.of_string_seed (string_of_int seed) in
      let by_fp = List.sort Relay.compare_fingerprint in
      let view = by_fp (Workload.authority_view ~rng:rng_a ~divergence truth) in
      let model = by_fp (reference_view ~rng:rng_b ~divergence truth) in
      List.length view = List.length model
      && List.for_all2
           (fun (a : Relay.t) (b : Relay.t) ->
             Relay.equal a b && Crypto.Digest32.equal a.descriptor_digest b.descriptor_digest)
           view model
      && Tor_sim.Rng.next_int64 rng_a = Tor_sim.Rng.next_int64 rng_b)

(* [votes] is [relays] followed by one [authority_view] + [Vote.create]
   per authority on the same RNG, with votes published ten minutes
   before [valid_after]; a caller that times the layers one at a time
   rebuilds the same votes this way. *)
let test_workload_votes_are_views () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let valid_after = 3600. in
  let published = valid_after -. 600. in
  let votes =
    Workload.votes ~rng:(Tor_sim.Rng.of_string_seed "views") ~keyring ~n_authorities:9
      ~n_relays:500 ~valid_after ()
  in
  let rng = Tor_sim.Rng.of_string_seed "views" in
  let truth = Workload.relays ~rng ~n:500 ~published in
  Array.iteri
    (fun authority vote ->
      let view = Workload.authority_view ~rng ~divergence:Workload.default_divergence truth in
      let rebuilt =
        Vote.create ~authority
          ~authority_fingerprint:(Crypto.Keyring.fingerprint keyring authority)
          ~nickname:(Workload.authority_nickname authority) ~published ~valid_after
          ~relays:view
      in
      checks
        (Printf.sprintf "authority %d" authority)
        (Crypto.Digest32.hex (Vote.digest vote))
        (Crypto.Digest32.hex (Vote.digest rebuilt)))
    votes

(* A view comes out in fingerprint order, whatever the order of the
   ground truth, so [Vote.create] finds it sorted. *)
let test_authority_view_sorted () =
  let rng = Tor_sim.Rng.of_string_seed "sorted-view" in
  let truth = Workload.relays ~rng ~n:300 ~published:0. in
  let view = Workload.authority_view ~rng ~divergence:Workload.default_divergence truth in
  let sorted relays =
    let fingerprints = List.map (fun (r : Relay.t) -> r.fingerprint) relays in
    List.sort String.compare fingerprints = fingerprints
  in
  checkb "ground truth unsorted" false (sorted truth);
  checkb "view sorted" true (sorted view)

let test_authority_nicknames () =
  checks "first" "moria1" (Workload.authority_nickname 0);
  checks "ninth" "faravahar" (Workload.authority_nickname 8);
  checks "synthetic" "auth9" (Workload.authority_nickname 9)

(* --- Metrics trace ---------------------------------------------------------------- *)

let test_metrics_trace () =
  let rng = Tor_sim.Rng.of_string_seed "metrics" in
  let series = Metrics_trace.series ~rng () in
  Alcotest.(check (float 1e-6)) "mean recentred" Metrics_trace.paper_mean
    (Metrics_trace.mean series);
  checkb "positive counts" true (Metrics_trace.minimum series > 0.);
  checkb "plausible ceiling" true (Metrics_trace.maximum series < 12_000.);
  let monthly = Metrics_trace.monthly series in
  checki "26 months Sep 2022 - Oct 2024" 26 (List.length monthly);
  checks "first month" "2022-09" (fst (List.hd monthly));
  checks "last month" "2024-10" (fst (List.nth monthly 25))


let test_workload_churn () =
  let rng = Tor_sim.Rng.of_string_seed "churn" in
  let relays = Workload.relays ~rng ~n:1000 ~published:0. in
  let next = Workload.evolve ~rng ~published:3600. relays in
  let count = List.length next in
  (* ~1.5% leave and ~1.5% join: the population stays near 1000. *)
  checkb "population roughly stable" true (count > 940 && count < 1060);
  let fingerprints relays =
    List.map (fun (r : Relay.t) -> r.Relay.fingerprint) relays
    |> List.sort_uniq String.compare
  in
  checki "no duplicate fingerprints" count (List.length (fingerprints next));
  let before = fingerprints relays and after = fingerprints next in
  let departed = List.filter (fun fp -> not (List.mem fp after)) before in
  let joined = List.filter (fun fp -> not (List.mem fp before)) after in
  checkb "some churn happened" true (departed <> [] && joined <> []);
  checkb "churn is small" true
    (List.length departed < 60 && List.length joined < 30);
  (* Republishing bumps the published timestamp on some survivors. *)
  let republished =
    List.filter (fun (r : Relay.t) -> r.Relay.published = 3600.) next
  in
  checkb "about 30% republished" true
    (List.length republished > 150 && List.length republished < 500)

(* A serialized 20-relay vote, the seed of the parser fuzzers. *)
let fuzz_base =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let rng = Tor_sim.Rng.of_string_seed "fuzz" in
  let votes =
    Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:20 ~valid_after:3600. ()
  in
  Vote.serialize votes.(0)

(* Fuzz the vote parser: random mutations of a valid document must
   either parse or return Error — never raise. *)
let qcheck_parser_fuzz =
  QCheck.Test.make ~name:"parsers never raise on mutated input" ~count:100
    QCheck.(pair (int_bound (String.length fuzz_base - 1)) (int_bound 255))
    (fun (pos, byte) ->
      let mutated = Bytes.of_string fuzz_base in
      Bytes.set mutated pos (Char.chr byte);
      let text = Bytes.to_string mutated in
      match Vote.parse text with Ok _ | Error _ -> true)

(* Whole-line mutations, which byte flips rarely produce: drop line
   [i] (op 0), copy it before line [j] (op 1) or move it there (op 2).
   [parse] must not raise, and what it accepts must come back equal
   from another serialize/parse round. *)
let qcheck_parser_line_fuzz =
  let lines = String.split_on_char '\n' fuzz_base in
  let n = List.length lines in
  let insert j line lines =
    List.filteri (fun k _ -> k < j) lines @ (line :: List.filteri (fun k _ -> k >= j) lines)
  in
  QCheck.Test.make ~name:"vote parse on dropped, copied or moved lines" ~count:300
    QCheck.(triple (int_bound 2) (int_bound (n - 1)) (int_bound (n - 1)))
    (fun (op, i, j) ->
      let line = List.nth lines i and others = List.filteri (fun k _ -> k <> i) lines in
      let mutated =
        match op with 0 -> others | 1 -> insert j line lines | _ -> insert j line others
      in
      match Vote.parse (String.concat "\n" mutated) with
      | Error _ -> true
      | Ok v -> (
          match Vote.parse (Vote.serialize v) with
          | Ok back -> Vote.equal v back
          | Error _ -> false))

(* --- digest encoding regression --------------------------------------------- *)

(* The digest encodings were captured from the pre-Sink (sprintf-based)
   implementation; the hexes below pin them byte-for-byte.  Any change
   to the canonical vote/consensus encoding is a wire-format break and
   must fail here. *)
let pinned_relays () =
  let fp c = String.make 40 c in
  let policy_web = Exit_policy.make Exit_policy.Accept [ (80, 80); (443, 443) ] in
  let r1 =
    Relay.make ~fingerprint:(fp 'A') ~nickname:"alpha" ~address:"10.0.0.1"
      ~or_port:9001 ~dir_port:9030 ~published:1700000000.
      ~flags:(Flags.of_list [ Flags.Fast; Flags.Running; Flags.Valid ])
      ~version:(Version.make 0 4 8 12) ~bandwidth:1000 ~measured:1200
      ~exit_policy:Exit_policy.accept_all ()
  in
  let r2 =
    Relay.make ~fingerprint:(fp 'B') ~nickname:"bravo" ~address:"10.0.0.2"
      ~or_port:9001 ~published:1700000100.
      ~flags:(Flags.of_list [ Flags.Exit; Flags.Running ])
      ~version:(Version.make ~tag:"alpha" 0 4 8 11) ~bandwidth:2000
      ~exit_policy:Exit_policy.reject_all ()
  in
  let r3 =
    Relay.make ~fingerprint:(fp 'C') ~nickname:"charlie" ~address:"10.0.0.3"
      ~or_port:443 ~dir_port:80 ~published:1700000200.
      ~flags:(Flags.of_list [ Flags.Guard; Flags.Running; Flags.Stable; Flags.Valid ])
      ~version:(Version.make 0 4 9 0) ~bandwidth:500 ~measured:450
      ~exit_policy:policy_web ()
  in
  (fp 'D', [ r1; r2; r3 ])

let test_pinned_vote_digest () =
  let auth_fp, relays = pinned_relays () in
  let vote =
    Vote.create ~authority:3 ~authority_fingerprint:auth_fp ~nickname:"dannenberg"
      ~published:1700003600. ~valid_after:1700007200. ~relays
  in
  checks "pre-refactor vote digest"
    "9358aa9842a777ffe2ee7943e1614a7767ed852f71cfca1f92a517544ae56419"
    (Crypto.Digest32.hex (Vote.digest vote))

let test_pinned_consensus_digest () =
  let _, relays = pinned_relays () in
  let entry (r : Relay.t) : Consensus.entry =
    {
      fingerprint = r.fingerprint;
      nickname = r.nickname;
      flags = r.flags;
      version = r.version;
      protocols = r.protocols;
      bandwidth = r.bandwidth;
      exit_policy = r.exit_policy;
    }
  in
  let c =
    Consensus.create ~valid_after:1700007200. ~n_votes:9
      ~entries:(List.map entry relays)
  in
  checks "pre-refactor consensus digest"
    "b218e9f5d14fbdadfc6f31ab46f503d812d6c414a09d9796f3fa8c48062832a3"
    (Crypto.Digest32.hex (Consensus.digest c));
  checks "signing payload = tagged digest"
    ("tor-consensus-signature\x00" ^ Crypto.Digest32.raw (Consensus.digest c))
    (Consensus.signing_payload c)

(* --- aggregation equivalence ------------------------------------------------- *)

(* Reference model: Figure 2 over lists.  Bucket the listings per
   fingerprint in a table, keep the buckets listed by a strict majority
   of the votes, and combine each bucket rule by rule.  The array merge
   inside [Aggregate.consensus] must produce the identical document. *)
let include_threshold ~n_votes = (n_votes / 2) + 1

(* Tor's median: the element at index [(len - 1) / 2] of the sorted
   list. *)
let low_median values =
  let sorted = List.sort Int.compare values in
  List.nth sorted ((List.length sorted - 1) / 2)

(* The most common value wins, count ties broken toward the larger
   value: sorting ascending and preferring later runs on equal counts
   implements the tie-break directly. *)
let popular ~compare_value values =
  let sorted = List.sort compare_value values in
  let rec scan best best_count current count = function
    | [] -> if count >= best_count then current else best
    | v :: rest ->
        if compare_value v current = 0 then scan best best_count current (count + 1) rest
        else
          let best, best_count =
            if count >= best_count then (current, count) else (best, best_count)
          in
          scan best best_count v 1 rest
  in
  match sorted with
  | [] -> invalid_arg "popular: empty"
  | first :: rest -> scan first 0 first 1 rest

(* One relay's entry from its [(authority_id, relay)] listings. *)
let aggregate_relay listings =
  let n_listing = List.length listings in
  let _, named_by =
    List.fold_left
      (fun (best_id, best_r) (id, r) -> if id > best_id then (id, r) else (best_id, best_r))
      (List.hd listings) (List.tl listings)
  in
  let flags =
    List.fold_left
      (fun acc flag ->
        let yes =
          List.length (List.filter (fun (_, r) -> Flags.mem flag r.Relay.flags) listings)
        in
        if 2 * yes > n_listing then Flags.add flag acc else acc)
      Flags.empty Flags.all
  in
  let relays = List.map snd listings in
  let measured = List.filter_map (fun (r : Relay.t) -> r.measured) relays in
  {
    Consensus.fingerprint = named_by.Relay.fingerprint;
    nickname = named_by.Relay.nickname;
    flags;
    version =
      popular ~compare_value:Version.compare (List.map (fun (r : Relay.t) -> r.version) relays);
    protocols =
      popular ~compare_value:String.compare (List.map (fun (r : Relay.t) -> r.protocols) relays);
    bandwidth =
      (if measured = [] then low_median (List.map (fun (r : Relay.t) -> r.bandwidth) relays)
       else low_median measured);
    exit_policy =
      popular ~compare_value:Exit_policy.compare
        (List.map (fun (r : Relay.t) -> r.exit_policy) relays);
  }

let reference_consensus ~valid_after votes =
  let n_votes = List.length votes in
  let table : (string, (int * Relay.t) list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v : Vote.t) ->
      Array.iter
        (fun (r : Relay.t) ->
          let listings = Option.value ~default:[] (Hashtbl.find_opt table r.fingerprint) in
          Hashtbl.replace table r.fingerprint ((v.authority, r) :: listings))
        v.relays)
    votes;
  let entries =
    Hashtbl.fold
      (fun _ listings acc ->
        if List.length listings >= include_threshold ~n_votes then
          aggregate_relay listings :: acc
        else acc)
      table []
  in
  Consensus.create ~valid_after ~n_votes ~entries

(* A realistically divergent 9-authority workload: every vote, every
   set with one vote dropped, and the set where authority 4's
   equivocation variant stands in for its vote.  The views share the
   ground truth's values physically, so most buckets agree on every
   property but flags and measured bandwidth. *)
let test_aggregate_equivalence () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let rng = Tor_sim.Rng.of_string_seed "agg-equiv" in
  let all =
    Array.to_list
      (Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:1000
         ~valid_after:3600. ())
  in
  let sets =
    (("all votes", all)
    :: List.map
         (fun (v : Vote.t) ->
           (Printf.sprintf "without %d" v.authority, List.filter (( != ) v) all))
         all)
    @ [ ("variant of 4",
         List.map (fun (v : Vote.t) -> if v.authority = 4 then reference_variant v else v) all) ]
  in
  List.iter
    (fun (name, votes) ->
      let reference = reference_consensus ~valid_after:3600. votes in
      let merged = Aggregate.consensus ~valid_after:3600. ~votes in
      checki (name ^ ": same entry count") (Consensus.n_entries reference)
        (Consensus.n_entries merged);
      checkb (name ^ ": identical digest (all entries byte-equal)") true
        (Consensus.equal reference merged))
    sets

(* The workload's views disagree only on flags and measured bandwidth.
   Here every voted property is drawn from a few values per listing,
   so ties and disagreements are common on each, and so are relays
   listed by exactly half the votes. *)
let qcheck_aggregate_reference =
  let gen = QCheck.Gen.(pair (int_range 1 9) (int_bound 1_000_000)) in
  let print (n, seed) = Printf.sprintf "votes=%d seed=%d" n seed in
  QCheck.Test.make ~name:"consensus equals the reference model on disagreeing votes"
    ~count:200 (QCheck.make ~print gen) (fun (n, seed) ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let pick l = Tor_sim.Rng.pick rng l in
      let listing i =
        sample_relay ~fingerprint:(fp i)
          ~nickname:(pick [ "a"; "b"; "c" ])
          ~flags:(Flags.of_list (List.filter (fun _ -> Tor_sim.Rng.bool rng) Flags.all))
          ~version:(Version.make 0 4 8 (Tor_sim.Rng.int rng 3))
          ~protocols:(pick [ "Link=1-4"; "Link=1-5" ])
          ~bandwidth:(Tor_sim.Rng.int rng 4)
          ?measured:(pick [ None; Some (Tor_sim.Rng.int rng 4) ])
          ~exit_policy:
            (pick
               [
                 Exit_policy.reject_all;
                 Exit_policy.make Exit_policy.Accept [ (80, 80) ];
                 Exit_policy.make Exit_policy.Accept [ (443, 443) ];
               ])
          ()
      in
      let votes =
        List.init n (fun authority ->
            vote_of ~authority
              (List.filter_map
                 (fun i -> if Tor_sim.Rng.bool rng then Some (listing i) else None)
                 (List.init 6 Fun.id)))
      in
      Consensus.equal
        (reference_consensus ~valid_after:0. votes)
        (Aggregate.consensus ~valid_after:0. ~votes))

(* --- rendering reference models ------------------------------------------ *)

(* The field renderers as they were before each value carried its own
   text: [sprintf] versions, a walk of an exit policy's range list, a
   walk of the flag list and a [sprintf] descriptor digest.  Votes,
   consensuses and descriptor digests hash these bytes, so the library's
   renderings must equal them. *)

let reference_flags =
  Flags.
    [ (Authority, "Authority"); (BadExit, "BadExit"); (Exit, "Exit"); (Fast, "Fast");
      (Guard, "Guard"); (HSDir, "HSDir"); (MiddleOnly, "MiddleOnly");
      (NoEdConsensus, "NoEdConsensus"); (Running, "Running"); (Stable, "Stable");
      (StaleDesc, "StaleDesc"); (V2Dir, "V2Dir"); (Valid, "Valid") ]

let reference_version_text (major, minor, micro, patch, tag) =
  let base = Printf.sprintf "%d.%d.%d.%d" major minor micro patch in
  match tag with None -> base | Some tag -> base ^ "-" ^ tag

let reference_policy_text p =
  let range (lo, hi) = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi in
  let keyword = match Exit_policy.policy p with Accept -> "accept" | Reject -> "reject" in
  keyword ^ " " ^ String.concat "," (List.map range (Exit_policy.ranges p))

(* Every one of the 8,192 flag sets, through [to_string] and [feed]. *)
let test_flags_text_reference () =
  let sink = Crypto.Sink.create () in
  for bits = 0 to (1 lsl List.length reference_flags) - 1 do
    let chosen = List.filteri (fun i _ -> bits land (1 lsl i) <> 0) reference_flags in
    let set = Flags.of_list (List.map fst chosen) in
    let expected = String.concat " " (List.map snd chosen) in
    Crypto.Sink.clear sink;
    Flags.feed sink set;
    if Flags.to_string set <> expected || Crypto.Sink.contents sink <> expected then
      Alcotest.failf "flag set %d: to_string %S, feed %S, expected %S" bits
        (Flags.to_string set) (Crypto.Sink.contents sink) expected
  done

let gen_version =
  QCheck.Gen.(
    let component = oneof [ int_bound 20; int_bound 999_999_999 ] in
    let* major = component and* minor = component and* micro = component in
    let* patch = component in
    let* tag = oneofl [ None; Some "alpha"; Some "rc"; Some "dev-1"; Some "" ] in
    return (major, minor, micro, patch, tag))

let qcheck_version_text_reference =
  QCheck.Test.make ~name:"version text equals the sprintf reference" ~count:300
    (QCheck.make ~print:reference_version_text gen_version)
    (fun ((major, minor, micro, patch, tag) as v) ->
      let expected = reference_version_text v in
      let made = Version.make ?tag major minor micro patch in
      Version.to_string made = expected
      &&
      match Version.of_string expected with
      | Ok parsed -> Version.to_string parsed = expected && Version.equal parsed made
      | Error _ -> false)

(* Random range lists, normalized by [make]: the canonical text is the
   range-list walk, [compare] orders policies by it, and it parses
   back to an equal policy. *)
let qcheck_policy_text_reference =
  let gen_policy =
    QCheck.Gen.(
      let port = oneof [ int_range 1 100; int_range 1 65535 ] in
      let range = map (fun (a, b) -> (min a b, max a b)) (pair port port) in
      let* policy = oneofl Exit_policy.[ Accept; Reject ] in
      let* ranges = list_size (int_range 1 5) range in
      return (Exit_policy.make policy ranges))
  in
  QCheck.Test.make ~name:"exit policy text equals the range-list reference" ~count:300
    (QCheck.make ~print:(fun (a, b) -> reference_policy_text a ^ " / " ^ reference_policy_text b)
       (QCheck.Gen.pair gen_policy gen_policy))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      Exit_policy.to_string a = reference_policy_text a
      && sign (Exit_policy.compare a b)
         = sign (String.compare (reference_policy_text a) (reference_policy_text b))
      &&
      match Exit_policy.of_string (reference_policy_text a) with
      | Ok parsed -> Exit_policy.equal parsed a && Exit_policy.ranges parsed = Exit_policy.ranges a
      | Error _ -> false)

(* A relay's descriptor digest hashes its [published] time through
   [%f]: integral, fractional, negative, [-0.], huge and non-finite
   times all render as [sprintf] renders them. *)
let qcheck_descriptor_digest_reference =
  let gen_published =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ 0.; -0.; nan; infinity; neg_infinity; 0.5; -0.5; 2.5; 1e-7; -1e-7; 1e15; -1e15;
              1e22; -1e22; 4503599627370495.5; 9007199254740993.; max_float; min_float ];
          map float_of_int (int_range (-2_000_000_000) 2_000_000_000);
          map Float.round (float_range (-1e18) 1e18);
          float_range (-1e9) 1e9;
          float;
        ])
  in
  QCheck.Test.make ~name:"descriptor digest equals the sprintf reference" ~count:500
    (QCheck.make
       ~print:(fun (published, bandwidth, v) ->
         Printf.sprintf "%h %d %s" published bandwidth (reference_version_text v))
       QCheck.Gen.(triple gen_published (int_bound 1_000_000) gen_version))
    (fun (published, bandwidth, ((major, minor, micro, patch, tag) as v)) ->
      let fingerprint = fp 7 in
      let r =
        Relay.make ~fingerprint ~nickname:"ref" ~address:"192.0.2.7" ~or_port:9001 ~published
          ~flags:Flags.empty ~version:(Version.make ?tag major minor micro patch) ~bandwidth
          ~exit_policy:Exit_policy.reject_all ()
      in
      Crypto.Digest32.equal r.descriptor_digest
        (Crypto.Digest32.of_string
           (Printf.sprintf "desc|%s|%f|%d|%s" fingerprint published bandwidth
              (reference_version_text v))))

let suite =
  [
    ("flags basics", `Quick, test_flags_basic);
    ("flags parsing", `Quick, test_flags_parse);
    QCheck_alcotest.to_alcotest qcheck_flags_roundtrip;
    ("version ordering", `Quick, test_version_order);
    ("version invalid", `Quick, test_version_invalid);
    ("exit policy normalize", `Quick, test_exit_policy_normalize);
    ("exit policy parse", `Quick, test_exit_policy_parse);
    ("exit policy compare", `Quick, test_exit_policy_compare);
    ("timefmt known values", `Quick, test_timefmt_known);
    ("timefmt strict fields and dates", `Quick, test_timefmt_strict);
    QCheck_alcotest.to_alcotest qcheck_timefmt_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_timefmt_mutated;
    QCheck_alcotest.to_alcotest qcheck_civil_inverse;
    ("relay validation", `Quick, test_relay_validation);
    ("vote create", `Quick, test_vote_create);
    ("vote duplicate rejection", `Quick, test_vote_duplicate_raises);
    ("vote digest sensitivity", `Quick, test_vote_digest_sensitivity);
    ("vote serialize roundtrip", `Quick, test_vote_serialize_roundtrip);
    ("vote parse garbage", `Quick, test_vote_parse_garbage);
    ("vote parse rejects a field line outside an entry", `Quick, test_vote_parse_outside_entry);
    QCheck_alcotest.to_alcotest qcheck_vote_roundtrip;
    ("inclusion needs majority", `Quick, test_inclusion_majority);
    ("nickname from largest authority", `Quick, test_nickname_largest_authority);
    ("flag majority with tie unset", `Quick, test_flag_majority_and_tie);
    ("version popular vote and tie", `Quick, test_version_popular_and_tie);
    ("exit policy tie-break", `Quick, test_exit_policy_tie);
    ("bandwidth median rules", `Quick, test_bandwidth_median);
    ("aggregate errors", `Quick, test_aggregate_errors);
    ("pinned vote digest", `Quick, test_pinned_vote_digest);
    ("pinned consensus digest", `Quick, test_pinned_consensus_digest);
    ("aggregate merge equivalence", `Slow, test_aggregate_equivalence);
    QCheck_alcotest.to_alcotest qcheck_aggregate_reference;
    QCheck_alcotest.to_alcotest qcheck_consensus_order_independent;
    ("aggregation memo shared across domains", `Quick, test_memo_across_domains);
    ("consensus validity window", `Quick, test_consensus_validity_window);
    ("consensus serialize", `Quick, test_consensus_serialize);
    ("workload determinism", `Quick, test_workload_determinism);
    ("workload divergence", `Quick, test_workload_divergence);
    ("workload aggregatable", `Quick, test_workload_aggregatable);
    ("workload pinned vote digests", `Quick, test_workload_pinned_digests);
    QCheck_alcotest.to_alcotest qcheck_authority_view_model;
    ("workload votes = views + Vote.create", `Quick, test_workload_votes_are_views);
    ("workload view is fingerprint-sorted", `Quick, test_authority_view_sorted);
    ("authority nicknames", `Quick, test_authority_nicknames);
    ("metrics trace", `Quick, test_metrics_trace);
    ("workload churn", `Quick, test_workload_churn);
    QCheck_alcotest.to_alcotest qcheck_parser_fuzz;
    QCheck_alcotest.to_alcotest qcheck_parser_line_fuzz;
    ("consensus text pinned", `Quick, test_consensus_text_pinned);
    ("flags text equals the list-walk reference", `Quick, test_flags_text_reference);
    QCheck_alcotest.to_alcotest qcheck_version_text_reference;
    QCheck_alcotest.to_alcotest qcheck_policy_text_reference;
    QCheck_alcotest.to_alcotest qcheck_descriptor_digest_reference;
  ]
