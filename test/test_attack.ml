(* Tests for the attack module: scenario builders and the exact cost
   arithmetic of Section 4.3. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

let test_majority_targets () =
  Alcotest.(check (list int)) "5 of 9" [ 0; 1; 2; 3; 4 ] (Attack.Ddos.majority_targets ~n:9);
  Alcotest.(check (list int)) "4 of 7" [ 0; 1; 2; 3 ] (Attack.Ddos.majority_targets ~n:7)

let test_bandwidth_attack_defaults () =
  let attacks = Attack.Ddos.bandwidth_attack ~n:9 () in
  checki "five windows" 5 (List.length attacks);
  List.iter
    (fun (a : Protocols.Runenv.attack) ->
      checkf 0. "starts at protocol start" 0. a.start;
      checkf 0. "covers the vote window" 300. a.stop;
      checkf 0. "Jansen residual" 0.5e6 a.bits_per_sec)
    attacks

let test_knockout () =
  let attacks = Attack.Ddos.knockout ~n:9 ~start:400. ~stop:500. () in
  Alcotest.(check (list int))
    "the majority targets" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (a : Protocols.Runenv.attack) -> a.node) attacks);
  List.iter
    (fun (a : Protocols.Runenv.attack) ->
      checkf 0. "window start" 400. a.start;
      checkf 0. "window stop" 500. a.stop;
      checkf 0. "zero residual" 0. a.bits_per_sec)
    attacks

let test_ddos_validation () =
  Alcotest.check_raises "bad window" (Invalid_argument "Ddos: stop before start")
    (fun () -> ignore (Attack.Ddos.knockout ~n:9 ~start:10. ~stop:5. ()));
  Alcotest.check_raises "bad flood window" (Invalid_argument "Ddos: stop before start")
    (fun () -> ignore (Attack.Ddos.bandwidth_attack ~n:9 ~start:10. ~stop:5. ()))

let test_flood_cost_linearity () =
  let one = Attack.Cost.flood_usd ~mbit_per_sec:1. ~targets:1 ~seconds:3600. in
  checkf 1e-12 "unit price" Attack.Cost.usd_per_mbit_per_hour one;
  checkf 1e-12 "scales with rate" (2. *. one)
    (Attack.Cost.flood_usd ~mbit_per_sec:2. ~targets:1 ~seconds:3600.);
  checkf 1e-12 "scales with targets" (5. *. one)
    (Attack.Cost.flood_usd ~mbit_per_sec:1. ~targets:5 ~seconds:3600.);
  Alcotest.check_raises "negative" (Invalid_argument "Cost.flood_usd: negative input")
    (fun () -> ignore (Attack.Cost.flood_usd ~mbit_per_sec:(-1.) ~targets:1 ~seconds:1.))

let test_paper_numbers () =
  (* The paper's headline figures, exactly. *)
  let instance = Attack.Cost.break_one_run () in
  checkf 1e-9 "240 Mbit/s flood" 240. instance.Attack.Cost.flood_mbit_per_sec;
  checkf 1e-6 "$0.074 per run" 0.074 instance.Attack.Cost.usd;
  checkf 1e-6 "$53.28 per month" 53.28 (Attack.Cost.monthly_usd instance);
  checkb "directory attack is far cheaper than bridges/scanners" true
    (Attack.Cost.monthly_usd instance < Attack.Cost.jansen_scanners_monthly_usd
    && Attack.Cost.monthly_usd instance < Attack.Cost.jansen_bridges_monthly_usd)

let test_planner () =
  let instance = Attack.Cost.break_one_run ~required_mbit_per_sec:10. () in
  checkf 1e-9 "flood is link minus requirement" 240. instance.Attack.Cost.flood_mbit_per_sec;
  checkf 1e-6 "monthly" 53.28 (Attack.Cost.monthly_usd instance);
  checkf 0. "3 hours to outage" 3. Attack.Cost.hours_to_network_down;
  let rendered = Format.asprintf "%a" (Attack.Cost.pp ~n_relays:8000) instance in
  checkb "pp mentions monthly cost" true
    (let needle = "$53.28/month" in
     let nl = String.length needle and hl = String.length rendered in
     let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0);
  Alcotest.check_raises "requirement exceeds link"
    (Invalid_argument "Cost.break_one_run: required exceeds link") (fun () ->
      ignore (Attack.Cost.break_one_run ~required_mbit_per_sec:500. ()))


let test_monitor_verdicts () =
  (* Attacked run: the monitor must raise the alarm. *)
  let attacked =
    Protocols.Runenv.of_spec
      {
        Protocols.Runenv.Spec.default with
        seed = "monitor-test";
        n_relays = 4000;
        attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
      }
  in
  let report =
    Attack.Monitor.analyze (Protocols.Current_v3.run attacked).Protocols.Runenv.trace
  in
  (match report.Attack.Monitor.verdict with
  | Attack.Monitor.Attack_suspected { authorities_missing_votes; failed_authorities; _ } ->
      checkb "missing votes detected" true (authorities_missing_votes >= 5);
      checkb "failures detected" true (failed_authorities >= 5)
  | Attack.Monitor.Healthy | Attack.Monitor.Degraded _ ->
      Alcotest.fail "expected Attack_suspected");
  checkb "failure count recorded" true (report.Attack.Monitor.consensus_failures > 0);
  (* Healthy run: silence. *)
  let healthy =
    Protocols.Runenv.of_spec
      { Protocols.Runenv.Spec.default with seed = "monitor-test"; n_relays = 500 }
  in
  let report =
    Attack.Monitor.analyze (Protocols.Current_v3.run healthy).Protocols.Runenv.trace
  in
  checkb "healthy verdict" true (report.Attack.Monitor.verdict = Attack.Monitor.Healthy)

let test_monitor_empty_trace () =
  let report = Attack.Monitor.analyze (Tor_sim.Trace.create ()) in
  checkb "empty trace healthy" true (report.Attack.Monitor.verdict = Attack.Monitor.Healthy)

let suite =
  [
    ("majority targets", `Quick, test_majority_targets);
    ("bandwidth attack defaults", `Quick, test_bandwidth_attack_defaults);
    ("knockout windows", `Quick, test_knockout);
    ("scenario validation", `Quick, test_ddos_validation);
    ("flood cost linearity", `Quick, test_flood_cost_linearity);
    ("paper's exact cost figures", `Quick, test_paper_numbers);
    ("planner", `Quick, test_planner);
    ("monitor verdicts", `Slow, test_monitor_verdicts);
    ("monitor empty trace", `Quick, test_monitor_empty_trace);
  ]
