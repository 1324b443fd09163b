(* Tests for the baseline protocols and the three agreement engines:
   happy paths, the Figure 1 attack, equivocation (in)security, silent
   authorities, and each engine's agreement/liveness under faults. *)

module R = Protocols.Runenv
module Sim = Tor_sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let small_env ?(attacks = []) ?behaviors ?(n_relays = 200) () =
  R.of_spec { R.Spec.default with attacks; behaviors; n_relays }

let attack5 ?(residual = 0.5e6) () = Attack.Ddos.bandwidth_attack ~n:9 ~residual_bits_per_sec:residual ()

let behaviors_with pairs =
  let b = Array.make 9 R.Honest in
  List.iter (fun (i, v) -> b.(i) <- v) pairs;
  b

(* --- Runenv.of_spec validation ---------------------------------------------- *)

(* Each malformed spec is rejected up front with an [of_spec] message,
   instead of dying inside the workload generator, the NIC model or the
   event queue; an infinite bandwidth stays legal. *)
let test_of_spec_rejects () =
  let rejects name msg spec =
    Alcotest.check_raises name (Invalid_argument ("Runenv.of_spec: " ^ msg)) (fun () ->
        ignore (R.of_spec spec : R.t))
  in
  let base = { R.Spec.default with R.Spec.n_relays = 10 } in
  let attack start stop bits_per_sec =
    { base with R.Spec.attacks = [ { R.node = 0; start; stop; bits_per_sec } ] }
  in
  rejects "negative relays" "negative relay count" { base with R.Spec.n_relays = -5 };
  List.iter
    (fun n_relays ->
      rejects (Printf.sprintf "%d relays" n_relays) "relay count must be at most 1000000"
        { base with R.Spec.n_relays })
    [ 1_000_001; max_int ];
  List.iter
    (fun bw ->
      rejects (Printf.sprintf "bandwidth %g" bw) "bandwidth must be a non-negative number"
        { base with R.Spec.bandwidth_bits_per_sec = bw })
    [ -1.; nan ];
  List.iter
    (fun h ->
      rejects (Printf.sprintf "horizon %g" h) "horizon must be finite and non-negative"
        { base with R.Spec.horizon = h })
    [ nan; infinity; -3. ];
  List.iter
    (fun h ->
      rejects (Printf.sprintf "horizon %g" h) "horizon must be at most 604800 s"
        { base with R.Spec.horizon = h })
    [ 604_800.5; 1e9 ];
  rejects "attack NaN start" "attack stops before it starts" (attack nan 5. 1e6);
  rejects "attack NaN stop" "attack stops before it starts" (attack 0. nan 1e6);
  rejects "attack NaN rate" "residual bandwidth must be a non-negative number"
    (attack 0. 5. nan);
  rejects "crash NaN start" "crash window stops before it starts"
    { base with
      R.Spec.behaviors = Some (behaviors_with [ (1, R.Crashed { start = nan; stop = 30. }) ]) };
  let env = R.of_spec { base with R.Spec.bandwidth_bits_per_sec = infinity } in
  checkb "infinite bandwidth accepted" true (env.R.bandwidth_bits_per_sec = infinity);
  let env = R.of_spec { base with R.Spec.horizon = 604_800. } in
  checkb "one-week horizon accepted" true (env.R.horizon = 604_800.);
  (* Checked, not built: a million-relay population takes seconds. *)
  R.Spec.validate { base with R.Spec.n_relays = 1_000_000 }

(* --- Siground --------------------------------------------------------------- *)

let sample_consensus () =
  Dirdoc.Consensus.create ~valid_after:0. ~n_votes:9 ~entries:[]

let test_siground () =
  let keyring = Crypto.Keyring.create ~n:9 () in
  let sg = Protocols.Siground.create ~keyring ~node:0 ~need:3 in
  checkb "no consensus yet" true (Protocols.Siground.consensus sg = None);
  let c = sample_consensus () in
  let own = Protocols.Siground.set_consensus sg ~now:1. c in
  checkb "own signature verifies" true
    (Crypto.Signature.verify keyring own (Dirdoc.Consensus.signing_payload c));
  checki "own counted" 1 (Protocols.Siground.count sg);
  let digest = Dirdoc.Consensus.digest c in
  let peer_sig i = Crypto.Signature.sign keyring ~signer:i (Dirdoc.Consensus.signing_payload c) in
  Protocols.Siground.store sg ~now:2. ~digest (peer_sig 1);
  checkb "not yet decided" true (Protocols.Siground.decided_at sg = None);
  (* duplicates and forgeries ignored *)
  Protocols.Siground.store sg ~now:2. ~digest (peer_sig 1);
  Protocols.Siground.store sg ~now:2. ~digest (Crypto.Signature.forge ~signer:2 "x");
  checki "still 2" 2 (Protocols.Siground.count sg);
  Protocols.Siground.store sg ~now:5. ~digest (peer_sig 3);
  (match Protocols.Siground.decided_at sg with
  | Some t -> Alcotest.(check (float 0.)) "decided at third sig" 5. t
  | None -> Alcotest.fail "should have decided");
  Alcotest.check_raises "conflicting consensus"
    (Invalid_argument "Siground.set_consensus: conflicting documents") (fun () ->
      let other = Dirdoc.Consensus.create ~valid_after:9. ~n_votes:9 ~entries:[] in
      ignore (Protocols.Siground.set_consensus sg ~now:6. other))

(* --- Current protocol --------------------------------------------------------- *)

let test_current_happy () =
  let env = small_env () in
  let result = Protocols.Current_v3.run env in
  checkb "success" true (R.success env result);
  checkb "agreement" true (R.agreement_holds env result);
  Array.iter
    (fun (a : R.authority_result) -> checki "all nine signatures" 9 a.signatures)
    result.per_authority;
  match R.success_latency result with
  | Some t -> checkb "fast on healthy network" true (t < 30.)
  | None -> Alcotest.fail "expected latency"

let test_current_fig1_attack () =
  let env = R.of_spec { R.Spec.default with n_relays = 8000; attacks = attack5 () } in
  let result = Protocols.Current_v3.run env in
  checkb "attack breaks the protocol" false (R.success env result);
  let log = Sim.Trace.dump ~node:8 result.trace in
  let contains needle =
    let nl = String.length needle and hl = String.length log in
    let rec go i = i + nl <= hl && (String.sub log i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "missing-votes notice" true (contains "We're missing votes from 5 authorities");
  checkb "fetch failures" true (contains "Giving up downloading votes");
  checkb "not enough votes" true
    (contains "We don't have enough votes to generate a consensus: 4 of 5")

let test_current_tolerates_four_silent () =
  let behaviors = behaviors_with [ (0, R.Silent); (1, R.Silent); (2, R.Silent); (3, R.Silent) ] in
  let env = small_env ~behaviors () in
  let result = Protocols.Current_v3.run env in
  checkb "5 of 9 suffice" true (R.success env result)

let test_current_fails_five_silent () =
  let behaviors =
    behaviors_with
      [ (0, R.Silent); (1, R.Silent); (2, R.Silent); (3, R.Silent); (4, R.Silent) ]
  in
  let env = small_env ~behaviors () in
  let result = Protocols.Current_v3.run env in
  checkb "4 of 9 fail" false (R.success env result)

let test_current_equivocation_insecure () =
  (* The Luo et al. attack: the current protocol lets an equivocating
     authority split honest authorities onto different documents. *)
  let env = small_env ~behaviors:(behaviors_with [ (0, R.Equivocating) ]) () in
  let result = Protocols.Current_v3.run env in
  checkb "agreement broken" false (R.agreement_holds env result)

(* --- Synchronous protocol ------------------------------------------------------ *)

let test_sync_happy () =
  let env = small_env () in
  let result = Protocols.Sync_ic.run env in
  checkb "success" true (R.success env result);
  checkb "agreement" true (R.agreement_holds env result)

let test_sync_equivocation_secure () =
  let env = small_env ~behaviors:(behaviors_with [ (0, R.Equivocating) ]) () in
  let result = Protocols.Sync_ic.run env in
  checkb "agreement survives equivocation" true (R.agreement_holds env result);
  checkb "still succeeds" true (R.success env result);
  (* Honest authorities detect and exclude the equivocator. *)
  let log = Sim.Trace.dump result.trace in
  let contains needle =
    let nl = String.length needle and hl = String.length log in
    let rec go i = i + nl <= hl && (String.sub log i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "equivocation logged" true (contains "Detected equivocation by authority 0")

let test_sync_attack_fails () =
  let env = R.of_spec { R.Spec.default with n_relays = 8000; attacks = attack5 () } in
  let result = Protocols.Sync_ic.run env in
  checkb "attack breaks sync protocol too" false (R.success env result)

let test_sync_more_traffic_than_current () =
  let env = small_env () in
  let sync = Protocols.Sync_ic.run env in
  let current = Protocols.Current_v3.run env in
  checkb "echo amplification (Table 1)" true
    (Sim.Stats.total_bytes_sent sync.stats
    > 3 * Sim.Stats.total_bytes_sent current.stats)

(* --- Agreement engines ------------------------------------------------------- *)

(* A direct harness over the simulator with string values, for any
   engine behind [Agreement.S]: each node's decided value, decision
   time and decision view. *)
type world = { decided : (string * float) option array; views : int array }

let run_engine (module A : Protocols.Agreement.S) ?(n = 9) ?(silent = []) ?(attacks = [])
    ?(validate = fun _ -> true) ?(horizon = 3600.) () =
  let keyring = Crypto.Keyring.create ~n () in
  let engine = Sim.Engine.create () in
  let topology = Sim.Topology.uniform ~n ~latency:0.03 in
  let net = Sim.Net.create ~engine ~topology ~bits_per_sec:250e6 () in
  List.iter
    (fun (a : R.attack) ->
      Sim.Net.limit_node net ~node:a.node ~start:a.start ~stop:a.stop
        ~bits_per_sec:a.bits_per_sec)
    attacks;
  let world = { decided = Array.make n None; views = Array.make n 0 } in
  let value_size (s : string) = String.length s in
  let nodes = Array.make n None in
  for id = 0 to n - 1 do
    let cb =
      {
        Protocols.Agreement.engine;
        send =
          (fun ~dst m ->
            Sim.Net.send net ~src:id ~dst ~size:(A.msg_size ~value_size m) m);
        validate;
        value_digest = (fun s -> Crypto.Digest32.of_string s);
        proposal = (fun () -> Some (Printf.sprintf "value-from-%d" id));
        decide =
          (fun ~view v ->
            world.decided.(id) <- Some (v, Sim.Engine.now engine);
            world.views.(id) <- view);
        on_view = (fun ~view:_ -> ());
        log = (fun _ -> ());
      }
    in
    nodes.(id) <- Some (A.create ~keyring ~n ~id ~view_timeout:5. cb)
  done;
  Sim.Net.set_handler net (fun ~dst ~src m ->
      match nodes.(dst) with
      | Some node when not (List.mem dst silent) -> A.handle node ~src m
      | _ -> ());
  Array.iteri
    (fun id node ->
      match node with
      | Some node when not (List.mem id silent) ->
          ignore (Sim.Engine.schedule engine ~at:0. (fun () -> A.start node))
      | _ -> ())
    nodes;
  Sim.Engine.run ~until:horizon engine;
  world

let run_hotstuff = run_engine (module Protocols.Hotstuff)

let decided_values world =
  Array.to_list world.decided |> List.filter_map (Option.map fst)

let test_hotstuff_happy () =
  let w = run_hotstuff () in
  checki "all decide" 9 (List.length (decided_values w));
  checki "one value" 1 (List.length (List.sort_uniq compare (decided_values w)));
  Array.iter
    (fun d ->
      match d with
      | Some (_, t) -> checkb "fast decision" true (t < 1.)
      | None -> Alcotest.fail "missing decision")
    w.decided

let test_hotstuff_leader_failure () =
  (* View 0's leader (node 0) is silent: the pacemaker must rotate. *)
  let w = run_hotstuff ~silent:[ 0 ] () in
  checki "8 live nodes decide" 8 (List.length (decided_values w));
  checki "agreement" 1 (List.length (List.sort_uniq compare (decided_values w)));
  checkb "decided beyond view 0" true (Array.exists (fun v -> v > 0) w.views)

let test_hotstuff_f_silent () =
  let w = run_hotstuff ~silent:[ 0; 4 ] () in
  checki "7 live decide" 7 (List.length (decided_values w));
  checki "agreement" 1 (List.length (List.sort_uniq compare (decided_values w)))

let test_hotstuff_too_many_silent () =
  (* With 3 = f+1 silent nodes of 9 there is no quorum: nobody decides. *)
  let w = run_hotstuff ~silent:[ 0; 1; 2 ] ~horizon:120. () in
  checki "no quorum, no decision" 0 (List.length (decided_values w))

let test_hotstuff_gst_recovery () =
  (* 5 of 9 unreachable for 300 s (GST): decisions land just after. *)
  let attacks = Attack.Ddos.knockout ~n:9 () in
  let w = run_hotstuff ~attacks () in
  checki "all decide after GST" 9 (List.length (decided_values w));
  Array.iter
    (fun d ->
      match d with
      | Some (_, t) -> checkb "decided shortly after GST" true (t >= 300. && t < 330.)
      | None -> Alcotest.fail "missing decision")
    w.decided

let test_hotstuff_external_validity () =
  (* If no value validates, nothing can ever be decided. *)
  let w = run_hotstuff ~validate:(fun _ -> false) ~horizon:60. () in
  checki "nothing decided" 0 (List.length (decided_values w))

let test_hotstuff_quorum () =
  let module A = Protocols.Agreement in
  checki "fault bound 9" 2 (A.fault_bound ~n:9);
  checki "fault bound 4" 1 (A.fault_bound ~n:4);
  checki "n=9" 7 (A.quorum ~n:9);
  checki "n=4" 3 (A.quorum ~n:4);
  checki "n=13" 9 (A.quorum ~n:13);
  checki "leader rotation" 2 (A.leader ~n:9 ~view:11)

let qcheck_hotstuff_agreement_under_faults =
  QCheck.Test.make ~name:"hotstuff agreement under random silent sets" ~count:15
    QCheck.(pair (int_bound 2) (int_bound 10000))
    (fun (n_silent, seed) ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let silent =
        List.sort_uniq Int.compare (List.init n_silent (fun _ -> Tor_sim.Rng.int rng 9))
      in
      let w = run_hotstuff ~silent () in
      let values = decided_values w in
      List.length values = 9 - List.length silent
      && List.length (List.sort_uniq compare values) <= 1)


(* --- Naive retry (paper 2.2 strawman) ------------------------------------------ *)

let test_naive_retry_violates_agreement () =
  let env =
    R.of_spec
      {
        R.Spec.default with
        seed = "naive-test";
        n_relays = 500;
        attacks = Protocols.Naive_retry.split_attack ();
      }
  in
  let res = Protocols.Naive_retry.run env in
  checkb "agreement violated" false res.Protocols.Naive_retry.agreement;
  checki "two majority-signed documents" 2
    (List.length res.Protocols.Naive_retry.majority_signed_documents);
  checkb "every authority adopted something" true
    (Array.for_all Option.is_some res.Protocols.Naive_retry.outputs)

let test_naive_retry_healthy_is_fine () =
  let env = R.of_spec { R.Spec.default with seed = "naive-test"; n_relays = 500 } in
  let res = Protocols.Naive_retry.run env in
  checkb "agreement without attack" true res.Protocols.Naive_retry.agreement;
  checki "one iteration suffices" 1 res.Protocols.Naive_retry.iterations_run

let test_ours_safe_under_split_attack () =
  (* The same split scenario that breaks naive retry: the paper's
     protocol must keep agreement. *)
  let env =
    R.of_spec
      {
        R.Spec.default with
        seed = "naive-test";
        n_relays = 500;
        attacks = Protocols.Naive_retry.split_attack ();
      }
  in
  let result = Torpartial.Protocol.run env in
  checkb "ours agrees" true (R.agreement_holds env result);
  checkb "ours succeeds" true (R.success env result)


(* --- Tendermint ---------------------------------------------------------------- *)

let run_tendermint = run_engine (module Protocols.Tendermint)

let test_tendermint_happy () =
  let d = run_tendermint () in
  checki "all decide" 9 (List.length (decided_values d));
  checki "one value" 1 (List.length (List.sort_uniq compare (decided_values d)))

let test_tendermint_leader_failure () =
  let d = run_tendermint ~silent:[ 0 ] () in
  checki "8 decide" 8 (List.length (decided_values d));
  checki "agreement" 1 (List.length (List.sort_uniq compare (decided_values d)))

let test_tendermint_f_silent () =
  let d = run_tendermint ~silent:[ 2; 6 ] () in
  checki "7 decide" 7 (List.length (decided_values d))

let test_tendermint_no_quorum () =
  let d = run_tendermint ~silent:[ 0; 1; 2 ] ~horizon:120. () in
  checki "no decision below quorum" 0 (List.length (decided_values d))

let test_tendermint_gst_recovery () =
  let attacks = Attack.Ddos.knockout ~n:9 () in
  let d = run_tendermint ~attacks () in
  checki "all decide after GST" 9 (List.length (decided_values d));
  Array.iter
    (fun entry ->
      match entry with
      | Some (_, t) -> checkb "shortly after GST" true (t >= 300. && t < 330.)
      | None -> Alcotest.fail "missing decision")
    d.decided

let test_tendermint_external_validity () =
  let d = run_tendermint ~validate:(fun _ -> false) ~horizon:60. () in
  checki "nothing invalid decided" 0 (List.length (decided_values d))

(* The agreement engine's trace lines carry its own name. *)
let check_engine_lines ~engine (result : R.run_result) =
  let logged prefix =
    List.exists
      (fun (r : Tor_sim.Trace.record) -> String.starts_with ~prefix r.Tor_sim.Trace.text)
      (Tor_sim.Trace.records result.R.trace)
  in
  checkb (engine ^ " lines") true (logged (engine ^ ": entering "));
  checkb "no hotstuff lines" false (logged "hotstuff: ")

let test_full_protocol_over_tendermint () =
  let env = R.of_spec { R.Spec.default with n_relays = 300 } in
  let result = Torpartial.Protocol.Over_tendermint.run env in
  checkb "success" true (R.success env result);
  checkb "agreement" true (R.agreement_holds env result);
  check_engine_lines ~engine:"tendermint" result;
  (* Same consensus content as the HotStuff instantiation. *)
  let hs = Torpartial.Protocol.Over_hotstuff.run env in
  (match
     ( (result.R.per_authority.(0)).R.consensus,
       (hs.R.per_authority.(0)).R.consensus )
   with
  | Some a, Some b -> checkb "engines agree on the document" true (Dirdoc.Consensus.equal a b)
  | _ -> Alcotest.fail "both engines should decide");
  (* Knockout recovery through the full stack. *)
  let attacks = Attack.Ddos.knockout ~n:9 () in
  let env2 = R.of_spec { R.Spec.default with n_relays = 300; attacks } in
  let r2 = Torpartial.Protocol.Over_tendermint.run env2 in
  checkb "knockout recovery" true (R.success env2 r2)


(* --- PBFT ---------------------------------------------------------------- *)

let run_pbft ?silent ?attacks ?horizon () =
  decided_values (run_engine (module Protocols.Pbft) ?silent ?attacks ?horizon ())

let test_pbft_happy () =
  let vals = run_pbft () in
  checki "all decide" 9 (List.length vals);
  checki "one value" 1 (List.length (List.sort_uniq compare vals))

let test_pbft_primary_failure () =
  let vals = run_pbft ~silent:[ 0 ] () in
  checki "8 decide" 8 (List.length vals);
  checki "agreement" 1 (List.length (List.sort_uniq compare vals))

let test_pbft_no_quorum () =
  checki "f+1 silent blocks" 0 (List.length (run_pbft ~silent:[ 0; 1; 2 ] ~horizon:120. ()))

let test_pbft_gst_recovery () =
  let vals = run_pbft ~attacks:(Attack.Ddos.knockout ~n:9 ()) () in
  checki "all decide after GST" 9 (List.length vals)

let test_full_protocol_over_pbft () =
  let env = R.of_spec { R.Spec.default with n_relays = 300 } in
  let result = Torpartial.Protocol.Over_pbft.run env in
  checkb "success" true (R.success env result);
  checkb "agreement" true (R.agreement_holds env result);
  check_engine_lines ~engine:"pbft" result


let qcheck_tendermint_agreement_under_faults =
  QCheck.Test.make ~name:"tendermint agreement under random silent sets" ~count:10
    QCheck.(pair (int_bound 2) (int_bound 10000))
    (fun (n_silent, seed) ->
      let rng = Tor_sim.Rng.create (Int64.of_int seed) in
      let silent =
        List.sort_uniq Int.compare (List.init n_silent (fun _ -> Tor_sim.Rng.int rng 9))
      in
      let d = run_tendermint ~silent () in
      let values = decided_values d in
      List.length values = 9 - List.length silent
      && List.length (List.sort_uniq compare values) <= 1)

let suite =
  [
    ("siground", `Quick, test_siground);
    ("current: happy path", `Quick, test_current_happy);
    ("current: Figure 1 attack", `Slow, test_current_fig1_attack);
    ("current: tolerates 4 silent", `Quick, test_current_tolerates_four_silent);
    ("current: fails with 5 silent", `Quick, test_current_fails_five_silent);
    ("current: equivocation breaks agreement", `Quick, test_current_equivocation_insecure);
    ("sync: happy path", `Quick, test_sync_happy);
    ("sync: equivocation tolerated", `Quick, test_sync_equivocation_secure);
    ("sync: attack still breaks it", `Slow, test_sync_attack_fails);
    ("sync: echo amplification", `Quick, test_sync_more_traffic_than_current);
    ("hotstuff: happy path", `Quick, test_hotstuff_happy);
    ("hotstuff: leader failure", `Quick, test_hotstuff_leader_failure);
    ("hotstuff: f silent", `Quick, test_hotstuff_f_silent);
    ("hotstuff: f+1 silent blocks", `Quick, test_hotstuff_too_many_silent);
    ("hotstuff: GST recovery", `Quick, test_hotstuff_gst_recovery);
    ("hotstuff: external validity", `Quick, test_hotstuff_external_validity);
    ("hotstuff: quorum arithmetic", `Quick, test_hotstuff_quorum);
    QCheck_alcotest.to_alcotest qcheck_hotstuff_agreement_under_faults;
    ("naive retry violates agreement", `Quick, test_naive_retry_violates_agreement);
    ("naive retry fine when healthy", `Quick, test_naive_retry_healthy_is_fine);
    ("ours safe under the split attack", `Quick, test_ours_safe_under_split_attack);
    ("tendermint: happy path", `Quick, test_tendermint_happy);
    ("tendermint: leader failure", `Quick, test_tendermint_leader_failure);
    ("tendermint: f silent", `Quick, test_tendermint_f_silent);
    ("tendermint: f+1 silent blocks", `Quick, test_tendermint_no_quorum);
    ("tendermint: GST recovery", `Quick, test_tendermint_gst_recovery);
    ("tendermint: external validity", `Quick, test_tendermint_external_validity);
    ("full protocol over tendermint", `Quick, test_full_protocol_over_tendermint);
    ("pbft: happy path", `Quick, test_pbft_happy);
    ("pbft: primary failure", `Quick, test_pbft_primary_failure);
    ("pbft: f+1 silent blocks", `Quick, test_pbft_no_quorum);
    ("pbft: GST recovery", `Quick, test_pbft_gst_recovery);
    ("full protocol over pbft", `Quick, test_full_protocol_over_pbft);
    QCheck_alcotest.to_alcotest qcheck_tendermint_agreement_under_faults;
    ("runenv: of_spec rejects malformed specs", `Quick, test_of_spec_rejects);
  ]
