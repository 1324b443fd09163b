(* Tests for the paper's protocol: the ICPS property checkers, the
   dissemination sub-protocol's proofs, the full protocol under
   attacks/faults, and property-based Definition 5.1 checks over
   randomized adversarial schedules. *)

module R = Protocols.Runenv
module D = Torpartial.Dissemination
module Icps = Torpartial.Icps
module Protocol = Torpartial.Protocol

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let behaviors_with pairs =
  let b = Array.make 9 R.Honest in
  List.iter (fun (i, v) -> b.(i) <- v) pairs;
  b

(* --- Icps checkers ---------------------------------------------------------- *)

let test_icps_checkers () =
  let v : int Icps.vector = [| Some 1; None; Some 3 |] in
  checki "non_bot" 2 (Icps.non_bot v);
  checkb "agreement same" true (Icps.agreement ~equal:Int.equal [ v; Array.copy v ]);
  checkb "agreement differs" false
    (Icps.agreement ~equal:Int.equal [ v; [| Some 1; Some 2; Some 3 |] ]);
  checkb "agreement empty" true (Icps.agreement ~equal:Int.equal []);
  let inputs = [| 1; 2; 3 |] in
  checkb "value validity with own value" true
    (Icps.value_validity ~equal:Int.equal ~inputs ~who:0 v);
  checkb "value validity with bot" true
    (Icps.value_validity ~equal:Int.equal ~inputs ~who:1 v);
  checkb "value validity violated" false
    (Icps.value_validity ~equal:Int.equal ~inputs ~who:1 [| None; Some 9; None |]);
  checkb "gst0 requires value" false
    (Icps.value_validity_gst_zero ~equal:Int.equal ~inputs ~who:1 v);
  checkb "common set" true (Icps.common_set_validity ~f:1 v);
  checkb "common set violated" false (Icps.common_set_validity ~f:0 v)

(* --- Dissemination ---------------------------------------------------------- *)

let n = 9
let f = 2
let keyring = Crypto.Keyring.create ~seed:"dissemination-tests" ~n ()

let digest_of i = Crypto.Digest32.of_string (Printf.sprintf "doc-%d" i)

let full_digests () =
  Array.init n (fun j ->
      let d = digest_of j in
      Some (d, D.sign_document keyring ~sender:j d))

let proposal_from i ~missing =
  let digests = full_digests () in
  List.iter (fun j -> digests.(j) <- None) missing;
  D.make_proposal keyring ~proposer:i ~digests

let test_proposal_validity () =
  let p = proposal_from 0 ~missing:[] in
  checkb "full proposal valid" true (D.proposal_valid keyring ~n ~f p);
  let p2 = proposal_from 1 ~missing:[ 3; 5 ] in
  checkb "n-f entries valid" true (D.proposal_valid keyring ~n ~f p2);
  let p3 = proposal_from 1 ~missing:[ 3; 5; 7 ] in
  checkb "too few entries invalid" false (D.proposal_valid keyring ~n ~f p3);
  (* Tampering with an entry's digest breaks the proposer signature. *)
  let tampered = proposal_from 0 ~missing:[] in
  tampered.D.entries.(2) <-
    { (tampered.D.entries.(2)) with D.digest = Some (digest_of 8) };
  checkb "tampered invalid" false (D.proposal_valid keyring ~n ~f tampered)

let build_with proposals =
  let collector = D.Collector.create keyring ~n ~f in
  List.iter (D.Collector.add collector) proposals;
  D.Collector.build collector

let test_collector_requires_quorum () =
  let proposals = List.init (n - f - 1) (fun i -> proposal_from i ~missing:[]) in
  checkb "6 proposals not enough" true (build_with proposals = None);
  let proposals = List.init (n - f) (fun i -> proposal_from i ~missing:[]) in
  match build_with proposals with
  | None -> Alcotest.fail "7 proposals should build"
  | Some value ->
      checki "all entries present" n (Icps.non_bot value.D.vector);
      checkb "validates" true (D.validate keyring ~n ~f value)

let test_collector_absent_entries () =
  (* Every proposer misses node 8's document: entry 8 resolves to ⊥
     with an Absent proof. *)
  let proposals = List.init (n - f) (fun i -> proposal_from i ~missing:[ 8 ]) in
  match build_with proposals with
  | None -> Alcotest.fail "should build"
  | Some value ->
      checkb "entry 8 bot" true (value.D.vector.(8) = None);
      checki "rest present" (n - 1) (Icps.non_bot value.D.vector);
      (match value.D.proofs.(8) with
      | D.Absent sigs -> checki "f+1 bot signatures" (f + 1) (List.length sigs)
      | D.Present _ | D.Equivocation _ -> Alcotest.fail "expected Absent proof");
      checkb "validates" true (D.validate keyring ~n ~f value)

let test_collector_equivocation () =
  (* Node 0 signed two different digests; proposals disagree about its
     document, and the leader must exclude it with an equivocation
     proof. *)
  let evil_digest = Crypto.Digest32.of_string "evil" in
  let evil_sig = D.sign_document keyring ~sender:0 evil_digest in
  let proposals =
    List.init (n - f) (fun i ->
        if i < 3 then
          let digests = full_digests () in
          digests.(0) <- Some (evil_digest, evil_sig);
          D.make_proposal keyring ~proposer:i ~digests
        else proposal_from i ~missing:[])
  in
  match build_with proposals with
  | None -> Alcotest.fail "should build"
  | Some value ->
      checkb "equivocator excluded" true (value.D.vector.(0) = None);
      (match value.D.proofs.(0) with
      | D.Equivocation ((d1, _), (d2, _)) ->
          checkb "distinct digests" false (Crypto.Digest32.equal d1 d2)
      | D.Present _ | D.Absent _ -> Alcotest.fail "expected Equivocation proof");
      checkb "validates" true (D.validate keyring ~n ~f value)

let test_validate_rejections () =
  let proposals = List.init (n - f) (fun i -> proposal_from i ~missing:[]) in
  match build_with proposals with
  | None -> Alcotest.fail "should build"
  | Some value ->
      (* Vector/proof tampering must be caught. *)
      let tampered = { value with D.vector = Array.copy value.D.vector } in
      tampered.D.vector.(0) <- Some (digest_of 5);
      checkb "digest swap rejected" false (D.validate keyring ~n ~f tampered);
      let emptied = { value with D.vector = Array.map (fun _ -> None) value.D.vector } in
      checkb "all-bot rejected" false (D.validate keyring ~n ~f emptied);
      let wrong_ring = Crypto.Keyring.create ~seed:"other" ~n () in
      checkb "foreign keyring rejected" false (D.validate wrong_ring ~n ~f value)

(* Present and Absent proofs are (f+1)-signature certificates.  Each
   forgery breaks exactly one clause of the certificate rule — at least
   f+1 signatures, no signer twice, every signature verifying — and
   [validate] must reject every one of them. *)
let test_validate_certificate_forgeries () =
  let check_proof what ~j value rebuild sigs =
    checkb (what ^ ": genuine validates") true (D.validate keyring ~n ~f value);
    let payload = D.doc_payload ~sender:j value.D.vector.(j) in
    let first = List.hd sigs in
    let forgeries =
      [
        ("one signer f+1 times", List.init (f + 1) (fun _ -> first));
        ("only f signatures", List.tl sigs);
        ( "one forged signature",
          Crypto.Signature.forge ~signer:first.Crypto.Signature.signer payload
          :: List.tl sigs );
      ]
    in
    checki (what ^ ": f+1 genuine signatures") (f + 1) (List.length sigs);
    List.iter
      (fun (how, forged) ->
        let proofs = Array.copy value.D.proofs in
        proofs.(j) <- rebuild forged;
        checkb
          (Printf.sprintf "%s: %s rejected" what how)
          false
          (D.validate keyring ~n ~f { value with D.proofs }))
      forgeries
  in
  let proof ~missing j =
    match build_with (List.init (n - f) (fun i -> proposal_from i ~missing)) with
    | Some value -> (value, value.D.proofs.(j))
    | None -> Alcotest.fail "should build"
  in
  (match proof ~missing:[] 0 with
  | value, D.Present (sender_sig, sigs) ->
      check_proof "present" ~j:0 value (fun forged -> D.Present (sender_sig, forged)) sigs
  | _ -> Alcotest.fail "expected a Present proof for entry 0");
  match proof ~missing:[ 8 ] 8 with
  | value, D.Absent sigs -> check_proof "absent" ~j:8 value (fun forged -> D.Absent forged) sigs
  | _ -> Alcotest.fail "expected an Absent proof for entry 8"

let test_value_digest_binding () =
  let proposals = List.init (n - f) (fun i -> proposal_from i ~missing:[]) in
  let with8 = List.init (n - f) (fun i -> proposal_from i ~missing:[ 8 ]) in
  match (build_with proposals, build_with with8) with
  | Some a, Some b ->
      checkb "different vectors, different digests" false
        (Crypto.Digest32.equal (D.value_digest a) (D.value_digest b));
      checkb "wire size positive" true (D.value_wire_size a > 0)
  | _ -> Alcotest.fail "both should build"

(* --- Full protocol --------------------------------------------------------------- *)

let test_protocol_happy_gst_zero () =
  let env = R.of_spec { R.Spec.default with n_relays = 200 } in
  let detailed = Protocol.run_detailed env in
  let result = detailed.Protocol.result in
  checkb "success" true (R.success env result);
  checkb "agreement" true (R.agreement_holds env result);
  (* GST = 0: Value Validity in its strong form — every honest
     authority's document is in the agreed vector. *)
  Array.iteri
    (fun i vector ->
      checki (Printf.sprintf "node %d full vector" i) 9 (Icps.non_bot vector);
      match vector.(i) with
      | Some d ->
          checkb "own digest correct" true
            (Crypto.Digest32.equal d (Dirdoc.Vote.digest env.R.votes.(i)))
      | None -> Alcotest.fail "own entry must be non-bot at GST=0")
    detailed.Protocol.vectors;
  checkb "vectors agree" true
    (Icps.agreement ~equal:Crypto.Digest32.equal
       (Array.to_list detailed.Protocol.vectors))

let test_protocol_ddos_recovery () =
  let attacks = Attack.Ddos.knockout ~n:9 () in
  let env = R.of_spec { R.Spec.default with n_relays = 2000; attacks } in
  let result = Protocol.run env in
  checkb "succeeds despite knockout" true (R.success env result);
  match R.decided_at_latest result with
  | Some t -> checkb "recovers shortly after attack" true (t > 300. && t < 360.)
  | None -> Alcotest.fail "expected decision"

let test_protocol_low_bandwidth () =
  let env =
    R.of_spec
      { R.Spec.default with n_relays = 1000; bandwidth_bits_per_sec = 1e6; horizon = 7200. }
  in
  let result = Protocol.run env in
  checkb "works at 1 Mbit/s where baselines fail" true (R.success env result);
  let baseline = Protocols.Current_v3.run env in
  checkb "baseline indeed fails" false (R.success env baseline)

let test_protocol_equivocator () =
  let env =
    R.of_spec
      {
        R.Spec.default with
        n_relays = 200;
        behaviors = Some (behaviors_with [ (0, R.Equivocating) ]);
      }
  in
  let detailed = Protocol.run_detailed env in
  checkb "agreement with equivocator" true (R.agreement_holds env detailed.Protocol.result);
  checkb "success with equivocator" true (R.success env detailed.Protocol.result);
  checkb "vectors agree" true
    (Icps.agreement ~equal:Crypto.Digest32.equal
       (Array.to_list
          (Array.of_list
             (List.filter (fun v -> Array.length v > 0)
                (Array.to_list detailed.Protocol.vectors)))))

let test_protocol_two_silent () =
  let env =
    R.of_spec
      {
        R.Spec.default with
        n_relays = 200;
        behaviors = Some (behaviors_with [ (3, R.Silent); (6, R.Silent) ]);
      }
  in
  let detailed = Protocol.run_detailed env in
  checkb "success with f silent" true (R.success env detailed.Protocol.result);
  Array.iteri
    (fun i vector ->
      if Array.length vector > 0 then begin
        checkb
          (Printf.sprintf "common set validity at node %d" i)
          true
          (Icps.common_set_validity ~f:2 vector);
        (* Silent nodes' documents can only be ⊥ or their real vote. *)
        checkb "silent slots are bot" true (vector.(3) = None && vector.(6) = None)
      end)
    detailed.Protocol.vectors

let test_protocol_silent_leader () =
  (* Node 0 leads view 0 of HotStuff.  With it silent the protocol must
     rotate views until a live leader drives agreement through. *)
  let env =
    R.of_spec
      {
        R.Spec.default with
        n_relays = 200;
        behaviors = Some (behaviors_with [ (0, R.Silent) ]);
      }
  in
  let detailed = Protocol.run_detailed env in
  checkb "success despite silent leader" true (R.success env detailed.Protocol.result);
  Array.iteri
    (fun i view ->
      match view with
      | Some v when i <> 0 ->
          checkb (Printf.sprintf "node %d decided past view 0" i) true (v > 0)
      | _ -> ())
    detailed.Protocol.decided_views;
  checkb "some view advanced" true
    (Array.exists (fun v -> v <> None) detailed.Protocol.decided_views)

let test_protocol_crashed_leader () =
  (* The view-0 leader is down through the whole dissemination and
     agreement phase, then recovers.  Liveness must not depend on it:
     the other eight authorities rotate leaders and finish without
     it. *)
  let env =
    R.of_spec
      {
        R.Spec.default with
        n_relays = 200;
        behaviors = Some (behaviors_with [ (0, R.Crashed { start = 0.; stop = 400. }) ]);
      }
  in
  let detailed = Protocol.run_detailed env in
  let result = detailed.Protocol.result in
  checkb "success despite crashed leader" true (R.success env result);
  checkb "agreement holds" true (R.agreement_holds env result);
  (* Crash-recovered authorities count as honest, so agreement_holds
     also constrains whatever node 0 decides after it comes back. *)
  List.iter
    (fun i ->
      match detailed.Protocol.decided_views.(i) with
      | Some v -> checkb (Printf.sprintf "node %d rotated views" i) true (v > 0)
      | None -> Alcotest.failf "node %d never decided" i)
    [ 1; 3; 5 ]

let test_protocol_three_silent_blocks () =
  (* f+1 = 3 silent: below the agreement quorum, the protocol must not
     decide (but also must not decide inconsistently). *)
  let env =
    R.of_spec
      {
        R.Spec.default with
        n_relays = 100;
        horizon = 600.;
        behaviors = Some (behaviors_with [ (1, R.Silent); (4, R.Silent); (7, R.Silent) ]);
      }
  in
  let result = Protocol.run env in
  checkb "no decision below quorum" false (R.success env result);
  checkb "but never disagreement" true (R.agreement_holds env result)

(* Definition 5.1 property test over randomized adversarial schedules:
   random Byzantine/silent subsets (≤ f) and random attack windows. *)
let qcheck_definition_5_1 =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* seed = int_range 0 1_000_000 in
        let* n_faulty = int_range 0 2 in
        let* attack_len = float_range 0. 200. in
        let* residual = oneofl [ 0.; 0.5e6; 5e6 ] in
        return (seed, n_faulty, attack_len, residual))
  in
  QCheck.Test.make ~name:"Definition 5.1 under random faults and attacks" ~count:12 gen
    (fun (seed, n_faulty, attack_len, residual) ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let behaviors = Array.make 9 R.Honest in
      let faulty = ref [] in
      while List.length !faulty < n_faulty do
        let i = Tor_sim.Rng.int rng 9 in
        if not (List.mem i !faulty) then faulty := i :: !faulty
      done;
      List.iter
        (fun i ->
          behaviors.(i) <- (if Tor_sim.Rng.bool rng then R.Silent else R.Equivocating))
        !faulty;
      let attacks =
        if attack_len > 1. then
          List.init (Tor_sim.Rng.range rng ~min:1 ~max:4) (fun node ->
              { R.node; start = 0.; stop = attack_len; bits_per_sec = residual })
        else []
      in
      let env =
        R.of_spec
          {
            R.Spec.default with
            seed = Printf.sprintf "prop-%d" seed;
            n_relays = 100;
            behaviors = Some behaviors;
            attacks;
            horizon = 3600.;
          }
      in
      let detailed = Protocol.run_detailed env in
      let honest = List.filter (fun i -> behaviors.(i) = R.Honest) (List.init 9 Fun.id) in
      let honest_vectors =
        List.filter_map
          (fun i ->
            let v = detailed.Protocol.vectors.(i) in
            if Array.length v > 0 then Some (i, v) else None)
          honest
      in
      (* Termination: with <= f faulty, every honest node decides. *)
      List.length honest_vectors = List.length honest
      (* Agreement. *)
      && Icps.agreement ~equal:Crypto.Digest32.equal (List.map snd honest_vectors)
      (* Common Set Validity. *)
      && List.for_all (fun (_, v) -> Icps.common_set_validity ~f:2 v) honest_vectors
      (* Value Validity: honest slots hold the honest vote or bot. *)
      && List.for_all
           (fun (_, v) ->
             List.for_all
               (fun j ->
                 match v.(j) with
                 | None -> true
                 | Some d ->
                     (not (behaviors.(j) = R.Silent))
                     && (behaviors.(j) = R.Equivocating
                        || Crypto.Digest32.equal d (Dirdoc.Vote.digest env.R.votes.(j))))
               honest)
           honest_vectors)

(* --- Experiments helpers ---------------------------------------------------------- *)

let test_cost_rows_exact () =
  let rows = Torpartial.Experiments.cost_rows () in
  let get name = List.assoc name rows in
  Alcotest.(check (float 1e-9)) "per run" 0.0740 (get "cost to break one run ($)");
  Alcotest.(check (float 1e-9)) "per month" 53.28 (get "cost per month ($)")

(* Golden Figure 11: 8k relays, five authorities knocked offline for
   the first 300 s.  The lock-step baselines fail and fall back to the
   next scheduled run (2100 s); ours recovers at ~302.7 s.  Compared in
   hex so a last-bit move of the simulated latency fails the test. *)
let test_fig11_golden () =
  let rows = Torpartial.Experiments.fig11 () in
  let render (r : Torpartial.Experiments.fig11_row) =
    ( Torpartial.Experiments.protocol_name r.protocol,
      Option.fold ~none:"none" ~some:(Printf.sprintf "%h") r.total_latency )
  in
  Alcotest.(check (list (pair string string)))
    "fig11 rows"
    [
      ("current", Printf.sprintf "%h" 2100.);
      ("synchronous", Printf.sprintf "%h" 2100.);
      ("ours", "0x1.2ea94558c6f5p+8");
    ]
    (List.map render rows)

(* --- Whole-run fingerprints ------------------------------------------------ *)

(* Everything a run produces, rendered to text and hashed: per
   authority the consensus digest, signature count and decision times
   (%h, so a last-bit move shows); per node the traffic counters; the
   per-label byte/drop/reject tables; the full log; and, with
   telemetry on, every histogram, span and probe sample.  The expected
   digests pin the drivers' observable behaviour: any change to a
   message, a size, a deadline, a log line or the same-instant order of
   setup events moves at least one of them. *)
let fingerprint (r : R.run_result) =
  let b = Buffer.create 65536 in
  let p fmt = Printf.bprintf b fmt in
  let opt_h = function None -> "none" | Some x -> Printf.sprintf "%h" x in
  p "protocol %s\n" r.R.protocol;
  Array.iteri
    (fun i (a : R.authority_result) ->
      p "auth %d %s sigs=%d decided=%s net=%s\n" i
        (match a.R.consensus with
        | Some c -> Crypto.Digest32.hex (Dirdoc.Consensus.digest c)
        | None -> "none")
        a.R.signatures (opt_h a.R.decided_at) (opt_h a.R.network_time))
    r.R.per_authority;
  let s = r.R.stats in
  for i = 0 to Tor_sim.Stats.n s - 1 do
    p "node %d sent=%d recv=%d msgs=%d dropped=%d rejected=%d\n" i
      (Tor_sim.Stats.bytes_sent s i) (Tor_sim.Stats.bytes_received s i)
      (Tor_sim.Stats.messages_sent s i) (Tor_sim.Stats.dropped_at s i)
      (Tor_sim.Stats.rejected_at s i)
  done;
  let table name = List.iter (fun (l, v) -> p "%s %s=%d\n" name l v) in
  table "label" (Tor_sim.Stats.labels s);
  table "dropped" (Tor_sim.Stats.dropped_labels s);
  table "rejected" (Tor_sim.Stats.rejected_labels s);
  Buffer.add_string b (Tor_sim.Trace.dump r.R.trace);
  (match r.R.obs with
  | None -> p "\nobs none\n"
  | Some o ->
      List.iter
        (fun (name, h) -> p "\nhist %s %s" name (Obs.Metrics.render h))
        (Obs.Metrics.histograms o.R.metrics);
      List.iter
        (fun (sp : Obs.Events.span) ->
          p "\nspan %d %s %h %h %b" sp.node sp.phase sp.start sp.stop sp.complete)
        o.R.spans;
      List.iter
        (fun (sa : Obs.Events.sample) ->
          p "\nsample %d %s %h %h" sa.node sa.track sa.time sa.value)
        o.R.samples);
  Crypto.Digest32.hex (Crypto.Digest32.of_string (Buffer.contents b))

let fingerprint_base = { R.Spec.default with n_relays = 300; horizon = 1800. }

let fingerprint_scenarios =
  [
    ("healthy", fingerprint_base);
    ( "flood-3k",
      {
        fingerprint_base with
        n_relays = 3000;
        attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
      } );
    ("knockout", { fingerprint_base with attacks = Attack.Ddos.knockout ~n:9 () });
    ( "behaviors",
      {
        fingerprint_base with
        behaviors =
          Some
            (behaviors_with
               [
                 (0, R.Equivocating);
                 (3, R.Silent);
                 (5, R.Crashed { start = 0.; stop = 200. });
                 (7, R.Crashed { start = 100.; stop = 400. });
               ]);
      } );
    ("defense", { fingerprint_base with defense = Some Defense.Plan.both });
    ( "faults",
      {
        fingerprint_base with
        fault_plan =
          Some
            {
              Tor_sim.Fault.seed = "fingerprint";
              faults =
                [
                  { kind = Tor_sim.Fault.Partition { a = 1; b = 4 }; start = 0.; stop = 900. };
                  {
                    kind = Tor_sim.Fault.Drop { src = Tor_sim.Fault.any; dst = 2; prob = 0.5 };
                    start = 0.;
                    stop = 600.;
                  };
                ];
            };
      } );
  ]

let fingerprint_protocols =
  Torpartial.Experiments.[ Current; Synchronous; Ours ]

(* (scenario, protocol, telemetry) -> SHA-256 of [fingerprint]. *)
let expected_fingerprints =
  [
    ("healthy/current/plain",
     "35f1bb4251cf8df9f9e69a7a735a39d9ea8dbfa66078c6d53675725161e46a19");
    ("healthy/current/obs",
     "7e45f0b5feaf64b6b4aff846d09ac6cd148e79076a161224698fe58517f5d8ea");
    ("healthy/synchronous/plain",
     "7b6a9f09b37507546c6ae522b2df932d38ffff4acaeb8823b26f4ce9d7967914");
    ("healthy/synchronous/obs",
     "7c9d0683f75acd2fa12ad457fa103f6026496527c5f97118e7357c59cfc90f30");
    ("healthy/ours/plain",
     "d38969eec06166feaf0a5d1932660dc6bbea2935e1c91d461087a120cada239c");
    ("healthy/ours/obs",
     "db437ca9a56d145422670025eec4ac702961ad89f65e95ad3881714134818a76");
    ("flood-3k/current/plain",
     "30e13f866c868c7176ea58114d3874bd6e825c8f6146b7026d60c528d0b5c1c1");
    ("flood-3k/current/obs",
     "563d61d369fce68ccdbdb953ecddf7510086492b09e6323ea076ec9141cf63ce");
    ("flood-3k/synchronous/plain",
     "6eed01e4570dfb0bdecbbf31e95e36166aa24ccee73d8d986286f1d106ffd883");
    ("flood-3k/synchronous/obs",
     "e4f5d068501b85d47693a4b741d89becf2f3f9572a28194bef196134e9c7d232");
    ("flood-3k/ours/plain",
     "51dc22ed31a16daa7eab160f96e8401420a3c7541c9d10f6ab360fd9ff7d9323");
    ("flood-3k/ours/obs",
     "2d0db6d902aeb6153f4d27f0a9ea16915b7254c5c98ca585e9781ac67b4aebdc");
    ("knockout/current/plain",
     "1830a8493fa03895c730bc47b22979f333724b5aa5682c8abd8116693e4690cf");
    ("knockout/current/obs",
     "d61b70d9680e146a173cb4727bd63f2a4bae65e209981f89c6f9eb9858cbfd56");
    ("knockout/synchronous/plain",
     "6b9aefabf69e414f06bf6709ed6db142db589bc6d92cf9f4cb67e72a7646c9d3");
    ("knockout/synchronous/obs",
     "7d14739c6234c11ba3397b1bcabe7957e47aaf1b111fd2b08c5ad216b464c347");
    ("knockout/ours/plain",
     "cf402a3d8974d401f3f8945d2a1c3174b674dc7a0e935ddf1715d33ad52c8ef0");
    ("knockout/ours/obs",
     "0303e68233a643e5f6e514b12ed5c5710e94790b6c4a8a42fbeb3ec2eb2a512b");
    ("behaviors/current/plain",
     "cbc06c5977781578bfc58d85df0187ad3010b872c925aa12182166226bfea5b3");
    ("behaviors/current/obs",
     "45ba380ba951f60ac27d53da8935e2d7c340e2ea22600ae67b5bdfe7f444eacf");
    ("behaviors/synchronous/plain",
     "9931d9e23b85b58e5c58de2ed50c344cb14ee6b27d97dfc31a48f9a00e666a7f");
    ("behaviors/synchronous/obs",
     "0bc8dde97679625f23992fb1e93e6d3e7e544bfbbc4869cfa9923299cf3091a5");
    ("behaviors/ours/plain",
     "026ab7d60da02264b350f03a4492574dafa09574f228729e4018de23b7d684c1");
    ("behaviors/ours/obs",
     "aa1b12c4a09b307cf7adc88ee8e23ebb32f0927b407eaadfd8a931b23ba47199");
    ("defense/current/plain",
     "cdad321c513265cf3ac382620e2944bbdd4f982772ef802ce27da72d5a5a89a6");
    ("defense/current/obs",
     "cba239a528ea2b0e3ac6e491e36b09a64496c3057a639c8037503a3d364c88ed");
    ("defense/synchronous/plain",
     "cb41bdf03e8a19357920bf34abddb08b6f2357b32fbc2ef6a7782bd437e9aaf0");
    ("defense/synchronous/obs",
     "c2d2587f0f66c4c9da1866147d2eba24a460d75c0361d33163625b3e64086920");
    ("defense/ours/plain",
     "410c69c103cd1662988ceb789f1f829579ca1d51a615520dd752fe2f60aca2f1");
    ("defense/ours/obs",
     "afaad2bee6f490590fc40f90f01c775858f65b35a7834258faceb3490c2bb989");
    ("faults/current/plain",
     "dc823606516a3549f5d0e24f96676dfc0157693e6c1782acc71a1c081b38ce9a");
    ("faults/current/obs",
     "24cab6bb3b9184b798e769a446d864317b8134e4912608181c6badf0984eb543");
    ("faults/synchronous/plain",
     "d34fa9512eb067e6f4d0bd60b47462a95ea1a9d6d4c3ae5434143729e61f9a69");
    ("faults/synchronous/obs",
     "53472ae98cd8248af7729653a9c89a89834fdf03cdf75d48a0b0952df806bc9f");
    ("faults/ours/plain",
     "c2a85f6dcf7e7fe7fefc3978eeda852da988fe4ee1c0edafdd3b1d8fe14905c7");
    ("faults/ours/obs",
     "1b9ba667cee51dd04524f3c6842ba773b22323bfa19e65216c4ec8c89550786c");
  ]

let fingerprint_key scenario protocol telemetry =
  Printf.sprintf "%s/%s/%s" scenario
    (Torpartial.Experiments.protocol_name protocol)
    (if telemetry then "obs" else "plain")

let fingerprints env_of =
  List.concat_map
    (fun (scenario, spec) ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun telemetry ->
              let report = Torpartial.Experiments.run protocol (env_of spec ~telemetry) in
              ( fingerprint_key scenario protocol telemetry,
                fingerprint report.R.result ))
            [ false; true ])
        fingerprint_protocols)
    fingerprint_scenarios

let test_run_fingerprints () =
  let votes = Torpartial.Experiments.votes_for_spec in
  let fresh spec ~telemetry =
    { (R.of_spec ~votes:(votes spec) spec) with R.telemetry }
  in
  Alcotest.(check (list (pair string string)))
    "fresh environments" expected_fingerprints (fingerprints fresh);
  (* The same runs through campaign contexts: the scenario's variable
     fields as a plan over its base spec, so a run through a campaign
     equals a fresh run. *)
  let through_context spec ~telemetry =
    let base =
      Exec.Campaign.spec_of ~base:spec
        { Exec.Campaign.attacks = []; behaviors = None; fault_plan = None }
    in
    let ctx = Exec.Campaign.create ~votes:(votes base) base in
    Exec.Campaign.env_of ~telemetry ctx (Exec.Campaign.plan_of_spec spec)
  in
  Alcotest.(check (list (pair string string)))
    "campaign contexts" expected_fingerprints (fingerprints through_context)

let test_table2_structure () =
  let rows, measured = Torpartial.Experiments.table2 () in
  checki "three sub-protocols" 3 (List.length rows);
  let total =
    List.fold_left (fun acc (r : Torpartial.Experiments.table2_row) -> acc + r.rounds) 0 rows
  in
  checki "nine rounds total" 9 total;
  checkb "empirical close to structural" true (measured > 6. && measured <= 9.5)


(* --- Outage timeline -------------------------------------------------------- *)

let test_outage_current_goes_dark () =
  let t =
    Torpartial.Outage.run ~hours:5
      ~protocol:Torpartial.Experiments.Current ~policy:Torpartial.Outage.Hourly_flood ()
  in
  (* Hour 0 bootstraps; hours 1+ fail; the hour-0 document expires 3 h
     after its valid-after, so clients go dark at hour 3. *)
  checkb "first dark hour is 3" true
    (Torpartial.Outage.first_dark_hour t = Some 3);
  checki "dark from hour 3 on" 2 t.Torpartial.Outage.dark_hours;
  checkb "attack costs cents" true (t.Torpartial.Outage.attacker_usd < 1.)

let test_outage_ours_stays_up () =
  let t =
    Torpartial.Outage.run ~hours:5
      ~protocol:Torpartial.Experiments.Ours ~policy:Torpartial.Outage.Hourly_flood ()
  in
  checkb "never dark" true (Torpartial.Outage.first_dark_hour t = None);
  checkb "every hour produced" true
    (List.for_all
       (fun (h : Torpartial.Outage.hour) -> h.Torpartial.Outage.consensus_produced)
       t.Torpartial.Outage.hours)

let test_outage_no_attack_baseline () =
  let t =
    Torpartial.Outage.run ~hours:3
      ~protocol:Torpartial.Experiments.Current ~policy:Torpartial.Outage.No_attack ()
  in
  checki "no dark hours" 0 t.Torpartial.Outage.dark_hours;
  checkb "free for the attacker who never attacked" true
    (t.Torpartial.Outage.attacker_usd = 0.)

(* --- Ablation sanity -------------------------------------------------------- *)

let test_doc_timeout_bounds_latency () =
  (* With silent authorities the dissemination wait binds latency
     almost exactly (the paper's argument against raising timeouts). *)
  let rows = Torpartial.Experiments.latency_vs_doc_timeout () in
  checki "three rows" 3 (List.length rows);
  List.iter
    (fun (timeout, latency) ->
      match latency with
      | Some l ->
          checkb (Printf.sprintf "%.0fs run close to %.0fs" timeout timeout) true
            (l >= timeout && l < timeout +. 10.)
      | None -> Alcotest.failf "doc_timeout %.0fs: no consensus" timeout)
    rows


(* --- Distribution through the pipeline --------------------------------------- *)

let dist_report ~diffs =
  let env =
    R.of_spec
      {
        R.Spec.default with
        seed = "dist-savings";
        n_relays = 1000;
        distribution =
          Some
            {
              Torclient.Distribution.default_config with
              Torclient.Distribution.clients = 100_000;
              caches = 8;
              diffs;
            };
      }
  in
  Torpartial.Experiments.run Torpartial.Experiments.Ours env

let test_distribution_steady_state_savings () =
  (* Steady state (no halt): clients hold last hour's consensus, so a
     diff fetch replaces the full download.  The paper-motivating bound:
     serving diffs must cut directory bytes by at least 5x — here the
     sizes come from the decided document's entries and the consdiff
     wire encoding, not fixtures. *)
  let with_diffs = dist_report ~diffs:true in
  let full = dist_report ~diffs:false in
  match (with_diffs.R.distribution, full.R.distribution) with
  | Some d, Some f ->
      checkb "diff run recovers" true
        (d.Torclient.Distribution.time_to_full_recovery <> None);
      checkb "full run recovers" true
        (f.Torclient.Distribution.time_to_full_recovery <> None);
      checkb "all clients served as diffs" true
        (d.Torclient.Distribution.diff_fetches = 100_000
        && f.Torclient.Distribution.full_fetches = 100_000);
      checkb "diffs cut steady-state bytes >= 5x" true
        (f.Torclient.Distribution.bytes_served
        >= 5 * d.Torclient.Distribution.bytes_served)
  | _ -> Alcotest.fail "expected distribution outcomes on both runs"

(* The exact bytes a 2,000-relay run serves, with diffs on and off, in
   steady state and after the paper's 3 h halt.  A million clients
   fetch through 16 caches, so [bytes_served] is the client count times
   the document or diff size: any move in how either size is computed
   moves these numbers. *)
let test_distribution_exact_sizes () =
  let spec = { R.Spec.default with seed = "dist-sizes"; n_relays = 2000 } in
  let votes = (R.of_spec spec).R.votes in
  let outcome ~halt ~diffs =
    let distribution =
      Some { Torclient.Distribution.default_config with halt; diffs }
    in
    let env = R.of_spec ~votes { spec with distribution } in
    match (Torpartial.Experiments.run Torpartial.Experiments.Ours env).R.distribution with
    | Some o ->
        Torclient.Distribution.
          [ o.bytes_served; o.full_fetches; o.diff_fetches ]
    | None -> Alcotest.fail "expected a distribution outcome"
  in
  List.iter
    (fun (label, halt, diffs, expected) ->
      Alcotest.(check (list int)) label expected (outcome ~halt ~diffs))
    [
      ("steady state, diffs", 0., true, [ 8_199_000_000; 0; 1_000_000 ]);
      ("steady state, full", 0., false, [ 545_401_000_000; 1_000_000; 0 ]);
      ("3 h halt, diffs", 10800., true, [ 33_194_000_000; 0; 1_000_000 ]);
      ("3 h halt, full", 10800., false, [ 545_401_000_000; 1_000_000; 0 ]);
    ]

let test_distribution_skipped_on_failure () =
  (* A run that produces no consensus has nothing to distribute. *)
  let env =
    R.of_spec
      {
        R.Spec.default with
        seed = "dist-fail";
        n_relays = 4000;
        attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
        distribution = Some Torclient.Distribution.default_config;
      }
  in
  let report = Torpartial.Experiments.run Torpartial.Experiments.Current env in
  checkb "run fails under attack" false report.R.success;
  checkb "no distribution outcome" true (report.R.distribution = None)

(* --- Scenario files ---------------------------------------------------------- *)

let test_scenario_parse_default () =
  match Torpartial.Scenario.parse Torpartial.Scenario.default_text with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      let spec = sc.Torpartial.Scenario.spec in
      checkb "protocol" true (sc.Torpartial.Scenario.protocol = Torpartial.Experiments.Current);
      checki "relays" 8000 spec.R.Spec.n_relays;
      checki "five attack windows" 5 (List.length spec.R.Spec.attacks)

let test_scenario_directives () =
  let text =
    "protocol ours # partial synchrony\n\
     relays 123\n\
     bandwidth 10\n\
     seed my-seed\n\
     behavior 2 silent\n\
     behavior 4 crashed:30:120\n\
     behavior 5 equivocating\n\
     behavior 5 honest\n\
     attack 7 10 20 1.5\n\
     knockout-majority 0 300\n"
  in
  match Torpartial.Scenario.parse text with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      let spec = sc.Torpartial.Scenario.spec in
      let behaviors = Option.get spec.R.Spec.behaviors in
      checkb "behavior applied" true (behaviors.(2) = R.Silent);
      checkb "crash window parsed" true
        (behaviors.(4) = R.Crashed { start = 30.; stop = 120. });
      checkb "the later behavior wins" true (behaviors.(5) = R.Honest);
      checki "six windows" 6 (List.length spec.R.Spec.attacks);
      checki "windows in directive order" 7 (List.hd spec.R.Spec.attacks).R.node;
      checkb "bandwidth" true (spec.R.Spec.bandwidth_bits_per_sec = 10e6);
      List.iter
        (fun (word, protocol) ->
          match Torpartial.Scenario.parse ("protocol " ^ word) with
          | Error e -> Alcotest.fail e
          | Ok sc ->
              checkb ("protocol " ^ word) true (sc.Torpartial.Scenario.protocol = protocol))
        Torpartial.Experiments.[ ("sync", Synchronous); ("partial", Ours) ]

let test_scenario_errors () =
  let expect_error text =
    match Torpartial.Scenario.parse text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
    | Error e -> e
  in
  checkb "unknown directive has line number" true
    (String.length (expect_error "frobnicate 3") > 0
    && String.sub (expect_error "frobnicate 3") 0 7 = "line 1:");
  let alien = expect_error "protocol alien" in
  let needle = {|unknown protocol "alien"|} in
  let rec contains i =
    i + String.length needle <= String.length alien
    && (String.sub alien i (String.length needle) = needle || contains (i + 1))
  in
  checkb "unknown protocol named" true (contains 0);
  ignore (expect_error "relays many");
  ignore (expect_error "behavior 42 silent");
  ignore (expect_error "behavior 1 crashed:120:30" (* stop before start *));
  ignore (expect_error "behavior 1 crashed:soon:later");
  ignore (expect_error "behavior 1 crashed:30" (* missing stop *));
  ignore (expect_error "attack 0 10 5 1.0" (* stop before start *));
  ignore (expect_error "flood-majority 10 5 0.5" (* stop before start *));
  ignore (expect_error "knockout-majority 10 5");
  (* Malformed specs parse directive by directive but fail
     [Runenv.Spec.validate]'s checks. *)
  ignore (expect_error "bandwidth -3");
  ignore (expect_error "bandwidth nan");
  ignore (expect_error "attack 0 nan 5 1.0");
  ignore (expect_error "attack 0 0 5 nan");
  ignore (expect_error "behavior 1 crashed:nan:30");
  ignore (expect_error "horizon nan");
  ignore (expect_error "horizon -3");
  ignore (expect_error "horizon inf");
  ignore (expect_error "clients many");
  ignore (expect_error "clients 0");
  ignore (expect_error "clients 1000000001");
  ignore (expect_error "caches 0");
  ignore (expect_error "caches 10001");
  ignore (expect_error "halt -5");
  ignore (expect_error "halt nan");
  ignore (expect_error "halt inf");
  ignore (expect_error "halt 604801");
  ignore (expect_error "diffs maybe");
  ignore (expect_error "defense fortress" (* unknown preset *));
  ignore (expect_error "defense admission:fast:8:16");
  ignore (expect_error "defense admission:0.5:8" (* missing backlog *));
  ignore (expect_error "defense rotate:two:450");
  ignore (expect_error "defense rotate:2" (* missing epoch *));
  ignore (expect_error "defense rotate:2:450:s:extra")

(* Scenario text is only parsed here, never run, so hostile bytes must
   come back as [Ok] or [Error]: one to three byte substitutions, half
   drawn from the characters directives are made of, over a valid
   scenario that uses every kind of directive. *)
let qcheck_scenario_parse_total =
  let base =
    Torpartial.Scenario.default_text
    ^ "behavior 3 silent\n\
       behavior 4 crashed:30:120\n\
       attack 8 400 500 1.0\n\
       knockout-majority 600 700\n\
       defense admission:2:32:64\n\
       defense rotate:2:600:s\n\
       clients 1000\n\
       caches 4\n\
       halt 10800\n\
       diffs off\n\
       horizon 3600\n"
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 3)
          (pair
             (int_bound (String.length base - 1))
             (oneof [ char; oneofl (List.of_seq (String.to_seq "0123456789-.:e naif#\n")) ])))
  in
  QCheck.Test.make ~name:"scenario: parse is total on mutated text" ~count:500 gen
    (fun edits ->
      let text = Bytes.of_string base in
      List.iter (fun (pos, c) -> Bytes.set text pos c) edits;
      (* the unmutated text is a valid scenario *)
      Result.is_ok (Torpartial.Scenario.parse base)
      &&
      match Torpartial.Scenario.parse (Bytes.to_string text) with Ok _ | Error _ -> true)

let test_scenario_runs () =
  match Torpartial.Scenario.parse "protocol ours\nrelays 100\nseed s\n" with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      let report = Torpartial.Scenario.run sc in
      checkb "scenario run succeeds" true report.R.success

let test_scenario_distribution_directives () =
  let text =
    "protocol ours\n\
     relays 100\n\
     seed dist\n\
     clients 50000\n\
     caches 8\n\
     halt 3600\n\
     diffs off\n"
  in
  match Torpartial.Scenario.parse text with
  | Error e -> Alcotest.fail e
  | Ok sc -> (
      match sc.Torpartial.Scenario.spec.R.Spec.distribution with
      | None -> Alcotest.fail "expected a distribution config"
      | Some d ->
          checki "clients" 50_000 d.Torclient.Distribution.clients;
          checki "caches" 8 d.Torclient.Distribution.caches;
          Alcotest.(check (float 0.)) "halt" 3600. d.Torclient.Distribution.halt;
          checkb "diffs off" false d.Torclient.Distribution.diffs;
          let report = Torpartial.Scenario.run sc in
          checkb "scenario with distribution runs" true report.R.success;
          checkb "distribution outcome attached" true (report.R.distribution <> None))

let test_scenario_defense_directives () =
  (* A preset name, then member-wise overrides: the custom admission
     line replaces the preset's bucket, the rotate line composes with
     it.  The seedless rotate form falls back to the committed seed. *)
  let text =
    "protocol ours\n\
     relays 100\n\
     seed defended\n\
     defense both\n\
     defense admission:0.5:8:16\n\
     defense rotate:2:450\n"
  in
  match Torpartial.Scenario.parse text with
  | Error e -> Alcotest.fail e
  | Ok sc -> (
      match sc.Torpartial.Scenario.spec.R.Spec.defense with
      | None -> Alcotest.fail "expected a defense plan"
      | Some plan ->
          (match plan.Defense.Plan.admission with
          | None -> Alcotest.fail "expected admission"
          | Some a ->
              Alcotest.(check (float 0.)) "rate" 0.5 a.Defense.Admission.rate;
              checki "burst" 8 a.Defense.Admission.burst;
              checki "backlog" 16 a.Defense.Admission.backlog);
          (match plan.Defense.Plan.rotation with
          | None -> Alcotest.fail "expected rotation"
          | Some r ->
              checki "out" 2 r.Defense.Rotation.out;
              Alcotest.(check (float 0.)) "epoch" 450. r.Defense.Rotation.epoch;
              checkb "default seed" true
                (r.Defense.Rotation.seed = Defense.Rotation.default.Defense.Rotation.seed));
          let report = Torpartial.Scenario.run sc in
          checkb "defended scenario runs" true report.R.success);
  (* [defense none] on its own leaves the spec undefended. *)
  match Torpartial.Scenario.parse "protocol ours\nrelays 100\ndefense none\n" with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      checkb "defense none is undefended" true
        (sc.Torpartial.Scenario.spec.R.Spec.defense = None)

(* Every directive kind in one file, against the same spec written as
   record updates.  The two majority directives both hit nodes 0-4, in
   disjoint windows. *)
let test_scenario_equals_hand_built_spec () =
  let text =
    "protocol ours\n\
     relays 300\n\
     bandwidth 100\n\
     seed every-directive\n\
     horizon 5000\n\
     behavior 2 silent\n\
     behavior 8 crashed:30:120\n\
     knockout-majority 400 500\n\
     flood-majority 0 300 0.5\n\
     attack 7 100 200 1.5\n\
     defense admission\n\
     defense rotate:1:100\n\
     clients 50000\n\
     caches 4\n\
     halt 3600\n\
     diffs off\n"
  in
  let spec =
    {
      R.Spec.default with
      seed = "every-directive";
      n_relays = 300;
      bandwidth_bits_per_sec = 100e6;
      horizon = 5000.;
      behaviors =
        Some (behaviors_with [ (2, R.Silent); (8, R.Crashed { start = 30.; stop = 120. }) ]);
      attacks =
        Attack.Ddos.bandwidth_attack ~n:9 ~start:0. ~stop:300. ~residual_bits_per_sec:0.5e6 ()
        @ Attack.Ddos.knockout ~n:9 ~start:400. ~stop:500. ()
        @ [ { R.node = 7; start = 100.; stop = 200.; bits_per_sec = 1.5e6 } ];
      defense =
        Some
          {
            Defense.Plan.admission_only with
            Defense.Plan.rotation =
              Some { Defense.Rotation.default with Defense.Rotation.out = 1; epoch = 100. };
          };
      distribution =
        Some { Torclient.Distribution.clients = 50_000; caches = 4; halt = 3600.; diffs = false };
    }
  in
  let summary (r : R.report) =
    (r.R.success, r.R.success_latency, r.R.total_bytes, r.R.dropped, r.R.rejected,
     r.R.distribution)
  in
  match Torpartial.Scenario.parse text with
  | Error e -> Alcotest.fail e
  | Ok sc ->
      let parsed = Torpartial.Scenario.run sc in
      let built = Torpartial.Experiments.run Torpartial.Experiments.Ours (R.of_spec spec) in
      checkb "the run decides" true parsed.R.success;
      checkb "distribution ran" true (parsed.R.distribution <> None);
      checkb "defense turned traffic away" true (parsed.R.rejected > 0);
      checkb "same report" true (summary parsed = summary built)

(* Two windows on one node run the same in either directive order,
   and touching windows are fine; overlapping ones are rejected before
   anything is built. *)
let test_scenario_windows_on_one_node () =
  let base = "relays 200\nseed windows\n" in
  let first = "attack 0 0 100 1.0\n" and second = "attack 0 200 300 1.0\n" in
  let report text =
    match Torpartial.Scenario.parse (base ^ text) with
    | Error e -> Alcotest.fail e
    | Ok sc ->
        let r = Torpartial.Scenario.run sc in
        (r.R.success, r.R.success_latency, r.R.total_bytes, r.R.dropped)
  in
  checkb "either order" true (report (first ^ second) = report (second ^ first));
  checkb "touching windows" true
    (Result.is_ok (Torpartial.Scenario.parse (base ^ first ^ "attack 0 100 200 0.5\n" ^ second)));
  checkb "overlapping windows rejected" true
    (Result.is_error
       (Torpartial.Scenario.parse (base ^ "attack 0 0 200 1.0\nattack 0 100 300 1.0\n")));
  let window start stop = { R.node = 0; start; stop; bits_per_sec = 1e6 } in
  Alcotest.check_raises "of_spec rejects overlapping windows"
    (Invalid_argument "Runenv.of_spec: attack windows overlap on node 0") (fun () ->
      ignore
        (R.of_spec
           { R.Spec.default with n_relays = 10; attacks = [ window 0. 200.; window 100. 300. ] }))

let suite =
  [
    ("icps checkers", `Quick, test_icps_checkers);
    ("dissemination proposal validity", `Quick, test_proposal_validity);
    ("dissemination collector quorum", `Quick, test_collector_requires_quorum);
    ("dissemination absent proofs", `Quick, test_collector_absent_entries);
    ("dissemination equivocation proofs", `Quick, test_collector_equivocation);
    ("dissemination validate rejections", `Quick, test_validate_rejections);
    ("dissemination value digest binding", `Quick, test_value_digest_binding);
    ("protocol: happy path (GST=0 value validity)", `Quick, test_protocol_happy_gst_zero);
    ("protocol: DDoS knockout recovery", `Slow, test_protocol_ddos_recovery);
    ("protocol: low bandwidth survival", `Slow, test_protocol_low_bandwidth);
    ("protocol: equivocating authority", `Quick, test_protocol_equivocator);
    ("protocol: two silent authorities", `Quick, test_protocol_two_silent);
    ("protocol: silent hotstuff leader", `Quick, test_protocol_silent_leader);
    ("protocol: crashed hotstuff leader recovers", `Quick, test_protocol_crashed_leader);
    ("protocol: f+1 silent blocks safely", `Quick, test_protocol_three_silent_blocks);
    QCheck_alcotest.to_alcotest qcheck_definition_5_1;
    ("experiments: exact cost figures", `Quick, test_cost_rows_exact);
    ("experiments: table 2 rounds", `Quick, test_table2_structure);
    ("experiments: figure 11 golden", `Quick, test_fig11_golden);
    ("drivers: whole-run fingerprints", `Quick, test_run_fingerprints);
    ("outage: current goes dark at hour 3", `Slow, test_outage_current_goes_dark);
    ("outage: ours stays up", `Slow, test_outage_ours_stays_up);
    ("outage: no-attack baseline", `Slow, test_outage_no_attack_baseline);
    ("ablation: doc timeout bounds latency", `Slow, test_doc_timeout_bounds_latency);
    ("scenario: parse default", `Quick, test_scenario_parse_default);
    ("scenario: directives", `Quick, test_scenario_directives);
    ("scenario: errors", `Quick, test_scenario_errors);
    QCheck_alcotest.to_alcotest qcheck_scenario_parse_total;
    ("scenario: runs", `Quick, test_scenario_runs);
    ("scenario: distribution directives", `Quick, test_scenario_distribution_directives);
    ("scenario: defense directives", `Quick, test_scenario_defense_directives);
    ("distribution: steady-state diff savings >= 5x", `Slow,
      test_distribution_steady_state_savings);
    ("distribution: skipped on failed runs", `Slow, test_distribution_skipped_on_failure);
    ("dissemination certificate forgeries", `Quick, test_validate_certificate_forgeries);
    ("scenario: every directive equals a hand-built spec", `Quick,
      test_scenario_equals_hand_built_spec);
    ("scenario: attack windows on one node", `Quick, test_scenario_windows_on_one_node);
    ("distribution: exact sizes at 2,000 relays", `Quick, test_distribution_exact_sizes);
  ]
