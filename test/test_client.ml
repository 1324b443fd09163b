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

(* Reference model: the ed-style line diff of two serialized documents
   and its patch, whose wire size [Torclient.Consdiff.wire_size]
   computes from the documents' entries without building either text.
   The diff merges the two documents' blocks (a header, one block per
   relay introduced by an "r " line, sorted by fingerprint, then a
   footer) by key in one pass, rather than running a generic LCS over
   10^5 lines; [patch base (diff base target) = target], and the
   digests bind a diff to its base and its result. *)
module Text_diff = struct
  type command =
    | Delete of { start : int; stop : int }
        (** delete lines [start..stop] of the base (1-indexed) *)
    | Replace of { start : int; stop : int; lines : string list }
        (** replace lines [start..stop] with [lines] *)
    | Insert of { after : int; lines : string list }
        (** insert [lines] after base line [after] (0 = at the top) *)

  type t = {
    base_digest : Crypto.Digest32.t;
    target_digest : Crypto.Digest32.t;
    commands : command list;  (** in ascending base-line order *)
  }

  type block = { key : string; lines : string list; start : int (* 1-indexed *) }

  let header_key = "\x00header"
  let footer_key = "\x7ffooter"

  (* Entry blocks are keyed by the fingerprint, the third token of the
     "r" line. *)
  let block_key line =
    match String.split_on_char ' ' line with
    | "r" :: _nickname :: fingerprint :: _ -> "r|" ^ fingerprint
    | _ -> "r|" ^ line

  let is_r_line line = String.length line >= 2 && line.[0] = 'r' && line.[1] = ' '

  let split_lines text = Array.of_list (String.split_on_char '\n' text)

  let split_blocks lines =
    let n = Array.length lines in
    let boundaries = ref [ (0, header_key) ] in
    let in_footer = ref false in
    for i = 0 to n - 1 do
      if not !in_footer then
        if is_r_line lines.(i) then boundaries := (i, block_key lines.(i)) :: !boundaries
        else if lines.(i) = "directory-footer" then begin
          boundaries := (i, footer_key) :: !boundaries;
          in_footer := true
        end
    done;
    let rec build = function
      | [] -> []
      | (start_idx, key) :: rest ->
          let stop_idx = match rest with [] -> n | (next, _) :: _ -> next in
          if stop_idx > start_idx then
            {
              key;
              lines = Array.to_list (Array.sub lines start_idx (stop_idx - start_idx));
              start = start_idx + 1;
            }
            :: build rest
          else build rest
    in
    build (List.rev !boundaries)

  let doc_digest text = Crypto.Digest32.of_string text

  let diff ~base ~target =
    let base_lines = split_lines base in
    let n_base = Array.length base_lines in
    let delete b = Delete { start = b.start; stop = b.start + List.length b.lines - 1 } in
    (* Merge both sorted block sequences, emitting edits in ascending
       base-line order. *)
    let rec merge bs ts acc =
      match (bs, ts) with
      | [], [] -> List.rev acc
      | b :: bs', [] -> merge bs' [] (delete b :: acc)
      | [], t :: ts' -> merge [] ts' (Insert { after = n_base; lines = t.lines } :: acc)
      | b :: bs', t :: ts' ->
          if String.equal b.key t.key then
            let stop = b.start + List.length b.lines - 1 in
            if b.lines = t.lines then merge bs' ts' acc
            else merge bs' ts' (Replace { start = b.start; stop; lines = t.lines } :: acc)
          else if String.compare b.key t.key < 0 then merge bs' ts (delete b :: acc)
          else merge bs ts' (Insert { after = b.start - 1; lines = t.lines } :: acc)
    in
    let commands = merge (split_blocks base_lines) (split_blocks (split_lines target)) [] in
    { base_digest = doc_digest base; target_digest = doc_digest target; commands }

  let patch ~base t =
    if not (Crypto.Digest32.equal (doc_digest base) t.base_digest) then
      Error "diff does not apply to this base document"
    else begin
      let base_lines = split_lines base in
      let n = Array.length base_lines in
      let out = Buffer.create (String.length base) in
      let first = ref true in
      let push line =
        if !first then first := false else Buffer.add_char out '\n';
        Buffer.add_string out line
      in
      let pos = ref 1 in
      let error = ref None in
      let copy_until k =
        if k < !pos then error := Some "diff commands out of order"
        else
          while !pos < k do
            push base_lines.(!pos - 1);
            incr pos
          done
      in
      let apply = function
        | Delete { start; stop } ->
            if start < 1 || stop > n || stop < start then error := Some "delete out of range"
            else begin
              copy_until start;
              pos := stop + 1
            end
        | Replace { start; stop; lines } ->
            if start < 1 || stop > n || stop < start then error := Some "replace out of range"
            else begin
              copy_until start;
              List.iter push lines;
              pos := stop + 1
            end
        | Insert { after; lines } ->
            if after < 0 || after > n then error := Some "insert out of range"
            else begin
              copy_until (after + 1);
              List.iter push lines
            end
      in
      List.iter (fun cmd -> if !error = None then apply cmd) t.commands;
      match !error with
      | Some e -> Error e
      | None ->
          copy_until (n + 1);
          let result = Buffer.contents out in
          if Crypto.Digest32.equal (doc_digest result) t.target_digest then Ok result
          else Error "patched document does not match the target digest"
    end

  (* Headers plus the encoded commands. *)
  let wire_size t =
    let command_size = function
      | Delete _ -> 16
      | Replace { lines; _ } | Insert { lines; _ } ->
          List.fold_left (fun acc l -> acc + String.length l + 1) 16 lines
    in
    (2 * Crypto.Digest32.wire_size)
    + 32
    + List.fold_left (fun acc c -> acc + command_size c) 0 t.commands
end

module Consdiff = Torclient.Consdiff

(* The entry-based size of the diff between two documents. *)
let entry_wire_size base target =
  Consdiff.wire_size ~base:(Consdiff.of_consensus base) ~target:(Consdiff.of_consensus target)

(* Both sizings of one pair agree, and the reference patch reproduces
   the target text. *)
let check_pair label base target =
  let base_text = Dirdoc.Consensus.serialize base in
  let target_text = Dirdoc.Consensus.serialize target in
  let d = Text_diff.diff ~base:base_text ~target:target_text in
  checki (label ^ ": entry-based size = text diff size") (Text_diff.wire_size d)
    (entry_wire_size base target);
  (match Text_diff.patch ~base:base_text d with
  | Ok patched -> checkb (label ^ ": patch(diff) = target") true (String.equal patched target_text)
  | Error e -> Alcotest.fail e);
  d

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
  (base, target)

let test_consdiff_roundtrip () =
  let base, target = consensus_pair () in
  let d = check_pair "hourly churn" base target in
  checkb "diff is much smaller than the document" true
    (Text_diff.wire_size d * 4 < Dirdoc.Consensus.text_size target)

let test_consdiff_identity () =
  let base, _ = consensus_pair () in
  let d = check_pair "identity" base base in
  checki "no commands for identical documents" 0 (List.length d.Text_diff.commands)

let test_consdiff_wrong_base () =
  let base_c, target_c = consensus_pair () in
  let base = Dirdoc.Consensus.serialize base_c in
  let target = Dirdoc.Consensus.serialize target_c in
  let d = Text_diff.diff ~base ~target in
  checkb "refuses a different base" true (Result.is_error (Text_diff.patch ~base:target d));
  (* Tampering with the target digest must be caught after patching. *)
  let tampered = { d with Text_diff.target_digest = Crypto.Digest32.of_string "x" } in
  checkb "refuses a tampered target digest" true
    (Result.is_error (Text_diff.patch ~base tampered))

let test_consdiff_disjoint_documents () =
  (* Even totally different documents roundtrip (as one big rewrite). *)
  let base, _ = consensus_pair () in
  let other = Dirdoc.Consensus.create ~valid_after:7200. ~n_votes:9 ~entries:[] in
  ignore (check_pair "to an empty document" base other);
  ignore (check_pair "from an empty document" other base)

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
  let base, target = divergent_consensuses () in
  checkb "population is ~1k relays" true (Dirdoc.Consensus.n_entries base > 900);
  let d = check_pair "9x1k" base target in
  checkb "diff much smaller than the full document" true
    (Text_diff.wire_size d * 5 < Dirdoc.Consensus.text_size target)

let test_consdiff_empty_fast_path () =
  let base, _ = consensus_pair () in
  checki "identical documents cost the preamble alone" ((2 * Crypto.Digest32.wire_size) + 32)
    (entry_wire_size base base);
  (* Equal entries in distinct records are rendered and compared. *)
  let copy =
    Dirdoc.Consensus.create ~valid_after:base.Dirdoc.Consensus.valid_after
      ~n_votes:base.Dirdoc.Consensus.n_votes
      ~entries:
        (Array.to_list base.Dirdoc.Consensus.entries
        |> List.map (fun (e : Dirdoc.Consensus.entry) -> { e with bandwidth = e.bandwidth }))
  in
  checki "an equal copy costs the preamble alone" ((2 * Crypto.Digest32.wire_size) + 32)
    (entry_wire_size base copy)

(* Pairs drawn from one aggregated 200-relay population: each relay is
   in neither document, dropped, joined, kept as the same record or an
   equal copy, or kept with a changed bandwidth (often the same
   length) or flag set; the headers differ or not, also by a fraction
   of a second the text does not show; either side may be empty. *)
let pair_population =
  lazy
    (let rng = Tor_sim.Rng.of_string_seed "consdiff-pairs" in
     let votes =
       Dirdoc.Workload.votes ~rng ~divergence:Dirdoc.Workload.default_divergence ~keyring
         ~n_authorities:9 ~n_relays:200 ~valid_after:0. ()
     in
     (Dirdoc.Aggregate.consensus ~valid_after:0. ~votes:(Array.to_list votes))
       .Dirdoc.Consensus.entries)

type fate = Absent | Dropped | Joined | Same | Copy | Bandwidth | Flag

let fates = [| Absent; Dropped; Joined; Same; Copy; Bandwidth; Flag |]

let qcheck_consdiff_sizes =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 200 in
      let* churn = int_range 0 3 in
      let* seed = int_bound 1_000_000 in
      let* valid_after_shift = oneofl [ 0.; 0.5; 3600.; 10800.; -3600. ] in
      let* n_votes = oneofl [ 9; 8 ] in
      let* empty = int_range 0 5 in
      return (n, churn, seed, valid_after_shift, n_votes, empty))
  in
  let print (n, churn, seed, shift, n_votes, empty) =
    Printf.sprintf "n=%d churn=%d seed=%d shift=%g n_votes=%d empty=%d" n churn seed shift
      n_votes empty
  in
  QCheck.Test.make ~name:"consdiff: entry-based size equals the text diff's" ~count:200
    (QCheck.make ~print gen)
    (fun (n, churn, seed, valid_after_shift, n_votes, empty) ->
      let population = Lazy.force pair_population in
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      (* Churn 0 keeps every relay as it is; higher levels change more. *)
      let fate () =
        if churn > 0 && Tor_sim.Rng.int rng 4 < churn then
          fates.(Tor_sim.Rng.int rng (Array.length fates))
        else Same
      in
      let base = ref [] and target = ref [] in
      Array.iteri
        (fun i (e : Dirdoc.Consensus.entry) ->
          if i < n then
            match fate () with
            | Absent -> ()
            | Dropped -> base := e :: !base
            | Joined -> target := e :: !target
            | Same ->
                base := e :: !base;
                target := e :: !target
            | Copy ->
                base := e :: !base;
                target := { e with bandwidth = e.bandwidth } :: !target
            | Bandwidth ->
                base := e :: !base;
                target := { e with bandwidth = e.bandwidth + 1 + Tor_sim.Rng.int rng 3 } :: !target
            | Flag ->
                base := e :: !base;
                let flags =
                  if Dirdoc.Flags.mem Dirdoc.Flags.HSDir e.flags then
                    Dirdoc.Flags.remove Dirdoc.Flags.HSDir e.flags
                  else Dirdoc.Flags.add Dirdoc.Flags.HSDir e.flags
                in
                target := { e with flags } :: !target)
        population;
      let side entries ~valid_after ~n_votes =
        Dirdoc.Consensus.create ~valid_after ~n_votes ~entries
      in
      let base =
        side (if empty = 1 then [] else !base) ~valid_after:1767232800. ~n_votes:9
      in
      let target =
        side
          (if empty = 2 then [] else !target)
          ~valid_after:(1767232800. +. valid_after_shift) ~n_votes
      in
      let base_text = Dirdoc.Consensus.serialize base in
      let target_text = Dirdoc.Consensus.serialize target in
      let d = Text_diff.diff ~base:base_text ~target:target_text in
      entry_wire_size base target = Text_diff.wire_size d
      && Text_diff.patch ~base:base_text d = Ok target_text
      && Dirdoc.Consensus.text_size base = String.length base_text
      && Dirdoc.Consensus.text_size target = String.length target_text)

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
  reject "Distribution: clients must be at most 1000000000"
    { dist_config with Dist.clients = 1_000_000_001 };
  reject "Distribution: clients must be at most 1000000000"
    { dist_config with Dist.clients = max_int };
  Dist.validate_config { dist_config with Dist.clients = 1_000_000_000 };
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
    QCheck_alcotest.to_alcotest qcheck_consdiff_sizes;
  ]
