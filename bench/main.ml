(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index), plus
   Bechamel micro-benchmarks of the core operations and a macro
   benchmark of one full protocol run.

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- fig10             # one target
     dune exec bench/main.exe -- --jobs 4 fig10    # sweep on 4 domains
     dune exec bench/main.exe -- --json out.json micro macro
                                                   # machine-readable results
     dune exec bench/main.exe -- --quota 0.05 micro  # faster, noisier micro *)

module E = Torpartial.Experiments

(* Worker-domain count for the sweep targets (fig7/fig10/fig11).
   Outputs are identical for every setting; only wall time changes. *)
let jobs = ref 1

(* Where to write the JSON report; [None] means stdout only. *)
let json_path : string option ref = ref None

(* Bechamel time quota per micro test, in seconds. *)
let quota = ref 0.5

(* Provenance stamped into the JSON [meta] section.  Passed in from the
   outside ([--meta-commit]/[--meta-date]) so the bench binary itself
   stays free of subprocess spawns and wall-clock reads. *)
let meta_commit = ref "unknown"
let meta_date = ref "unknown"

(* The JSON report's sections in emission order, each holding its
   entries in recording order.  A target clears the sections it owns
   before recording into them. *)
let sections =
  List.map
    (fun name -> (name, ref []))
    [ "micro_ns_per_run"; "macro_wall_s"; "alloc_mb_per_run"; "macro_dropped_msgs";
      "obs_profile"; "campaign_plans_per_s"; "defense_break_counts"; "dist_wall_s";
      "dist_metrics"; "target_wall_s" ]

let clear section = List.assoc section sections := []

let record section key (value : Obs.Json.t) =
  let entries = List.assoc section sections in
  entries := !entries @ [ (key, value) ]

let header title =
  Printf.printf "\n================ %s ================\n%!" title

let pp_latency = function
  | Some t -> Printf.sprintf "%8.1f s" t
  | None -> "    fail  "

(* --- figures ------------------------------------------------------------ *)

let fig1 () =
  header "Figure 1: authority log while 5 authorities are under DDoS";
  print_endline (E.fig1 ());
  Printf.printf "\n(Compare with the paper's Figure 1: the authority misses votes from\n";
  Printf.printf "5 authorities, cannot fetch them, and fails with '4 of 5'.)\n"

let fig6 () =
  header "Figure 6: number of Tor relays over time (synthetic census)";
  let monthly, mean = E.fig6 () in
  List.iter (fun (month, count) -> Printf.printf "%s  %8.1f\n" month count) monthly;
  Printf.printf "mean over window: %.2f (paper: 7141.79)\n" mean

let fig7 () =
  header "Figure 7: bandwidth required by the current protocol under attack";
  Printf.printf "%8s  %22s  %s\n" "relays" "required (Mbit/s)" "DDoS residual (Mbit/s)";
  List.iter
    (fun (r, mbit) ->
      Printf.printf "%8d  %22.1f  %.1f\n" r mbit
        (Attack.Ddos.ddos_residual_bits_per_sec /. 1e6))
    (E.fig7 ~jobs:!jobs ());
  Printf.printf
    "(paper: linear in relay count, ~10 Mbit/s at 8,000 relays; the DDoS\n\
    \ residual of 0.5 Mbit/s is far below the requirement, so the attack wins)\n"

let fig10 () =
  header "Figure 10: latency of consensus generation";
  let cells = E.fig10 ~jobs:!jobs () in
  let bandwidths = E.default_bandwidths in
  let relay_counts = E.default_relay_counts in
  List.iter
    (fun bw ->
      Printf.printf "\n-- bandwidth %.1f Mbit/s --\n%8s" bw "relays";
      List.iter (fun p -> Printf.printf "  %12s" (E.protocol_name p))
        [ E.Current; E.Synchronous; E.Ours ];
      print_newline ();
      List.iter
        (fun r ->
          Printf.printf "%8d" r;
          List.iter
            (fun p ->
              let cell =
                List.find
                  (fun (c : E.fig10_cell) ->
                    c.protocol = p && c.bandwidth_mbit = bw && c.n_relays = r)
                  cells
              in
              Printf.printf "  %12s" (pp_latency cell.latency))
            [ E.Current; E.Synchronous; E.Ours ];
          print_newline ())
        relay_counts)
    bandwidths;
  Printf.printf
    "\n(paper: synchronous fails above 2,000 relays at 10 Mbit/s; current fails\n\
    \ between 9,000 and 10,000; both fail at 1 and 0.5 Mbit/s; ours always\n\
    \ completes, taking ~15 min at 0.5 Mbit/s with 8,000 relays)\n"

let fig11 () =
  header "Figure 11: recovery from a 5-minute knockout of 5 authorities";
  List.iter
    (fun (row : E.fig11_row) ->
      Printf.printf "%-12s %s" (E.protocol_name row.protocol) (pp_latency row.total_latency);
      (match row.total_latency with
      | Some t when t < E.baseline_fallback_seconds ->
          Printf.printf "  (%.1f s after the attack ends)" (t -. 300.)
      | Some _ -> Printf.printf "  (failed run + 30-minute fallback rerun)"
      | None -> ());
      print_newline ())
    (E.fig11 ~jobs:!jobs ());
  Printf.printf "(paper: ours ~10 s after the attack ends; baselines 2100 s)\n"

(* --- tables ------------------------------------------------------------- *)

let table1 () =
  header "Table 1: measured communication (bytes on the wire)";
  let rows = E.table1 () in
  Printf.printf "%-12s %4s %8s %14s  breakdown\n" "protocol" "n" "relays" "total";
  List.iter
    (fun (row : E.table1_row) ->
      Printf.printf "%-12s %4d %8d %14d  %s\n"
        (E.protocol_name row.protocol)
        row.n row.n_relays row.total_bytes
        (String.concat ", "
           (List.map (fun (l, b) -> Printf.sprintf "%s=%d" l b) row.bytes_by_label)))
    rows;
  Printf.printf "\nmeasured exponent of total bytes vs n (power-law fit at fixed d):\n";
  List.iter
    (fun (p, (fit : Tor_sim.Summary.fit)) ->
      Printf.printf "  %-12s n^%.2f  (R^2 = %.3f)\n" (E.protocol_name p) fit.slope
        fit.r_squared)
    (E.table1_fits rows);
  Printf.printf
    "\nasymptotics (paper Table 1):\n\
    \  current      O(n^2 d + n^2 k)   bounded synchrony, insecure\n\
    \  synchronous  O(n^3 d + n^4 k)   bounded synchrony, interactive consistency\n\
    \  ours         O(n^2 d + n^4 k)   partial synchrony, IC under partial synchrony\n\
     (d dominates at these sizes, so current/ours fit ~n^2 and synchronous ~n^3)\n"

let table2 () =
  header "Table 2: round complexity of the sub-protocols";
  let rows, measured = E.table2 () in
  let total = List.fold_left (fun acc (r : E.table2_row) -> acc + r.rounds) 0 rows in
  List.iter
    (fun (r : E.table2_row) -> Printf.printf "%-36s %d\n" r.sub_protocol r.rounds)
    rows;
  Printf.printf "%-36s %d\n" "total" total;
  Printf.printf
    "empirical: good-case decision time / one-way latency = %.1f rounds\n\
     (aggregation's fetch round is skipped in the good case, so the\n\
    \ measured figure sits slightly below the worst-case total)\n"
    measured

let cost () =
  header "Section 4.3: attack cost (Jansen et al. stressor pricing)";
  List.iter (fun (name, value) -> Printf.printf "%-34s %10.3f\n" name value) (E.cost_rows ());
  Printf.printf "(paper: $0.074 per broken run, $53.28 per month)\n"

(* --- extensions beyond the paper's figures --------------------------------- *)

let outage () =
  header "Outage timeline: 'five minutes of DDoS brings down Tor' end-to-end";
  let module O = Torpartial.Outage in
  let show (t : O.timeline) =
    Printf.printf "\n%s under %s:\n"
      (E.protocol_name t.O.protocol)
      (match t.O.policy with O.No_attack -> "no attack" | O.Hourly_flood -> "hourly 5-minute flood");
    List.iter
      (fun (h : O.hour) ->
        Printf.printf "  hour %2d: consensus %-9s client %s\n" h.O.index
          (if h.O.consensus_produced then "produced" else "FAILED")
          (match h.O.client_status with
          | Some Torclient.Directory.Fresh -> "fresh"
          | Some Torclient.Directory.Stale -> "stale"
          | Some Torclient.Directory.Expired -> "EXPIRED - network down"
          | None -> "bootstrapping"))
      t.O.hours;
    Printf.printf "  dark hours: %d/%d   attacker spend: $%.3f\n" t.O.dark_hours
      (List.length t.O.hours) t.O.attacker_usd;
    match O.first_dark_hour t with
    | Some h -> Printf.printf "  clients lose service at hour %d\n" h
    | None -> Printf.printf "  clients never lose service\n"
  in
  show (O.run ~hours:8 ~protocol:E.Current ~policy:O.Hourly_flood ());
  show (O.run ~hours:8 ~protocol:E.Ours ~policy:O.Hourly_flood ());
  Printf.printf
    "\n(paper: consensus documents expire 3 h after generation, so three failed\n\
    \ hourly runs take the whole network down; the mitigation keeps every hour\n\
    \ fresh at the same attacker spend)\n"

let ablation () =
  header "Ablations: design-choice sweeps and the naive-retry strawman";
  Printf.printf "\nHotStuff pacemaker timeout vs recovery after a 300 s knockout:\n";
  List.iter
    (fun (timeout, recovery) ->
      Printf.printf "  view_timeout %5.1f s -> recovery %s\n" timeout
        (match recovery with Some t -> Printf.sprintf "%.1f s" t | None -> "fail"))
    (E.recovery_vs_view_timeout ());
  Printf.printf "\nDissemination wait (doc_timeout) vs latency with 2 silent authorities:\n";
  List.iter
    (fun (timeout, latency) ->
      Printf.printf "  doc_timeout %5.1f s -> latency %s\n" timeout
        (match latency with Some t -> Printf.sprintf "%.1f s" t | None -> "fail"))
    (E.latency_vs_doc_timeout ());
  Printf.printf "\nNaive retry (paper 2.2 strawman) under a signature-round split attack:\n";
  let module NR = Protocols.Naive_retry in
  let env =
    Protocols.Runenv.of_spec
      { Protocols.Runenv.Spec.default with
        seed = "naive-bench";
        n_relays = 1000;
        attacks = NR.split_attack ();
      }
  in
  let res = NR.run env in
  Printf.printf "  agreement: %b  distinct majority-signed documents: %d\n"
    res.NR.agreement
    (List.length res.NR.majority_signed_documents);
  Array.iteri
    (fun i o ->
      match o with
      | Some (k, d) ->
          Printf.printf "  authority %d adopted iteration %d (digest %s)\n" i k
            (Crypto.Digest32.short_hex (Dirdoc.Consensus.digest d))
      | None -> Printf.printf "  authority %d adopted nothing\n" i)
    res.NR.outputs;
  Printf.printf
    "  (two documents with majority signatures for the same hour: the safety\n\
    \   violation that motivates a view-based agreement layer)\n";
  Printf.printf "\nAgreement-engine pluggability (paper 5.2.2): HotStuff vs Tendermint:\n";
  List.iter
    (fun (row : E.engine_row) ->
      Printf.printf "  %-10s %-9s latency %-10s agreement traffic %7.1f kB\n" row.engine
        row.scenario
        (match row.engine_latency with Some t -> Printf.sprintf "%.1f s" t | None -> "fail")
        (float_of_int row.agreement_bytes /. 1e3))
    (E.agreement_engines ());
  Printf.printf
    "  (same dissemination/aggregation; the all-to-all vote engines cost ~6x\n\
    \   the agreement bytes of HotStuff's leader-relayed votes)\n";
  Printf.printf "\nConsensus-diff savings over hourly relay churn (consdiff):\n";
  List.iter
    (fun (hour, saving) ->
      Printf.printf "  hour %d -> diff saves %.1f%% of the full download\n" hour
        (100. *. saving))
    (E.consdiff_savings ());
  Printf.printf "\nConsensus-health monitor (Table 1's deployed mitigation) on two runs:\n";
  let attacked =
    Protocols.Runenv.of_spec
      { Protocols.Runenv.Spec.default with
        seed = "monitor-bench";
        n_relays = 8000;
        attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
      }
  in
  let healthy =
    Protocols.Runenv.of_spec
      { Protocols.Runenv.Spec.default with seed = "monitor-bench"; n_relays = 1000 }
  in
  let verdict env2 =
    (Attack.Monitor.analyze (Protocols.Current_v3.run env2).Protocols.Runenv.trace)
      .Attack.Monitor.verdict
  in
  Format.printf "  under attack: %a@." Attack.Monitor.pp_verdict (verdict attacked);
  Format.printf "  healthy:      %a@." Attack.Monitor.pp_verdict (verdict healthy)

(* --- micro-benchmarks ----------------------------------------------------- *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let keyring = Crypto.Keyring.create ~n:9 () in
  let rng = Tor_sim.Rng.of_string_seed "bench" in
  let votes =
    Dirdoc.Workload.votes ~rng ~keyring ~n_authorities:9 ~n_relays:1000
      ~valid_after:0. ()
  in
  let vote_list = Array.to_list votes in
  let payload_1k = String.make 1024 'x' in
  let payload_64k = String.make 65536 'x' in
  let serialized = Dirdoc.Vote.serialize votes.(0) in
  let relays = Array.to_list votes.(0).Dirdoc.Vote.relays in
  (* Broadcast churn: 9 authorities all-to-all through the event core
     and the NICs, with a rate window on every NIC so egress
     reservations cross breakpoints.  One persistent network; each run
     drains 72 broadcast deliveries. *)
  let churn_net =
    let engine = Tor_sim.Engine.create () in
    let topology = Tor_sim.Topology.uniform ~n:9 ~latency:0.01 in
    let net = Tor_sim.Net.create ~engine ~topology ~bits_per_sec:250e6 () in
    Tor_sim.Net.set_handler net (fun ~dst:_ ~src:_ () -> ());
    for node = 0 to 8 do
      Tor_sim.Net.limit_node net ~node ~start:1. ~stop:2. ~bits_per_sec:10e6
    done;
    net
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
            Crypto.Sha256.digest_string payload_1k));
        Test.make ~name:"sha256-64KiB" (Staged.stage (fun () ->
            Crypto.Sha256.digest_string payload_64k));
        Test.make ~name:"vote-digest-1k-relays" (Staged.stage (fun () ->
            Dirdoc.Vote.create ~authority:0
              ~authority_fingerprint:(Crypto.Keyring.fingerprint keyring 0)
              ~nickname:"moria1" ~published:0. ~valid_after:3600. ~relays));
        Test.make ~name:"aggregate-9-votes-1k-relays" (Staged.stage (fun () ->
            Dirdoc.Aggregate.consensus ~valid_after:3600. ~votes:vote_list));
        Test.make ~name:"vote-parse-1k-relays" (Staged.stage (fun () ->
            Dirdoc.Vote.parse serialized));
        Test.make ~name:"signature-sign+verify" (Staged.stage (fun () ->
            let s = Crypto.Signature.sign keyring ~signer:0 payload_1k in
            assert (Crypto.Signature.verify keyring s payload_1k)));
        Test.make ~name:"net-broadcast-churn" (Staged.stage (fun () ->
            for src = 0 to 8 do
              Tor_sim.Net.broadcast churn_net ~src ~size:600 ()
            done;
            Tor_sim.Engine.run (Tor_sim.Net.engine churn_net)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> estimates := (name, est) :: !estimates
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results;
  let estimates =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !estimates
  in
  clear "micro_ns_per_run";
  List.iter
    (fun (name, est) ->
      Printf.printf "%-40s %12.0f ns/run\n" name est;
      record "micro_ns_per_run" name (Float est))
    estimates

(* --- macro benchmark ------------------------------------------------------- *)

(* Full end-to-end protocol runs, timed wall-clock and measured for
   allocation ([Gc.allocated_bytes] across the run, reported as MB).
   Exercises the whole hot path at once: event scheduling, NIC
   reservations, vote digests, HMAC signatures, and aggregation. *)
let macro_run name ~env ~protocol =
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  let report = E.run protocol env in
  let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6 in
  let wall = Unix.gettimeofday () -. t0 in
  let stats = report.Protocols.Runenv.result.Protocols.Runenv.stats in
  Printf.printf "%-28s %8.3f s wall  %8.1f MB alloc  (success: %b, latency: %s)\n"
    name wall alloc_mb report.Protocols.Runenv.success
    (match report.Protocols.Runenv.success_latency with
    | Some t -> Printf.sprintf "%.1f s simulated" t
    | None -> "n/a");
  (match Tor_sim.Stats.dropped_labels stats with
  | [] -> ()
  | by_label ->
      Printf.printf "%-28s dropped: %s\n" ""
        (String.concat ", "
           (List.map (fun (l, c) -> Printf.sprintf "%s=%d" l c) by_label)));
  record "macro_wall_s" name (Float wall);
  record "alloc_mb_per_run" name (Float alloc_mb);
  record "macro_dropped_msgs" name (Int (Tor_sim.Stats.dropped stats))

let macro () =
  header "Macro benchmarks: full protocol runs (wall clock + allocation)";
  List.iter clear [ "macro_wall_s"; "alloc_mb_per_run"; "macro_dropped_msgs"; "obs_profile" ];
  let spec seed n_relays = { Protocols.Runenv.Spec.default with seed; n_relays } in
  (* Figure 10's largest completing configuration. *)
  macro_run "e2e-ours-8k-relays" ~protocol:E.Ours
    ~env:(Protocols.Runenv.of_spec (spec "macro-bench" 8000));
  (* One step beyond: the relay count where the current protocol starts
     failing in the paper. *)
  macro_run "e2e-ours-10k-relays" ~protocol:E.Ours
    ~env:(Protocols.Runenv.of_spec (spec "macro-bench" 10_000));
  (* The paper's headline scenario: the current v3 protocol with five
     authorities knocked out by DDoS.  The flood stretches the NIC rate
     schedules and forces the retry storm — the worst case for the
     event core. *)
  macro_run "e2e-current-8k-ddos" ~protocol:E.Current
    ~env:
      (Protocols.Runenv.of_spec
         {
           (spec "macro-bench" 8000) with
           attacks = Attack.Ddos.bandwidth_attack ~n:9 ();
         });
  let name = "e2e-ours-32k-relays" in
  let spec_32k = spec "macro-bench" 32_000 in
  macro_run name ~protocol:E.Ours ~env:(Protocols.Runenv.of_spec spec_32k);
  (* Telemetry pass over the same run, deliberately separate from the
     timed runs above so the committed macro numbers stay
     telemetry-free (the 2x regression gate is the zero-cost-when-off
     proof).  It reports the decision and delivery-latency
     percentiles. *)
  Printf.printf "\ntelemetry pass (untimed): latency percentiles\n";
  let env =
    { (Protocols.Runenv.of_spec spec_32k) with Protocols.Runenv.telemetry = true }
  in
  let report = E.run E.Ours env in
  let quantiles key = function
    | None -> ()
    | Some h when Obs.Metrics.count h = 0 -> ()
    | Some h ->
        let p50 = Obs.Metrics.percentile h 0.5 and p99 = Obs.Metrics.percentile h 0.99 in
        Printf.printf "%-44s n=%-4d p50 %9.6f s  p99 %9.6f s\n" key
          (Obs.Metrics.count h) p50 p99;
        record "obs_profile" (key ^ "-n") (Int (Obs.Metrics.count h));
        record "obs_profile" (key ^ "-p50_s") (Float p50);
        record "obs_profile" (key ^ "-p99_s") (Float p99)
  in
  quantiles (name ^ "/time-to-decision") (Protocols.Runenv.time_to_decision report);
  List.iter
    (fun label ->
      quantiles
        (name ^ "/delivery-" ^ label)
        (Protocols.Runenv.delivery_latency report label))
    [ "proposal"; "agreement"; "document"; "cons-sig" ]

(* --- campaign macro bench --------------------------------------------------- *)

(* Campaign evaluation: the same 200 chaos-sampled plans run cold
   (every plan generates its own vote population — what a naive loop
   over [Runenv.of_spec] and [Experiments.run] costs) and warm (one
   {!Exec.Campaign} context: the population built once, each plan
   still building its own environment and simulator from it).  The
   reports are checked identical before any number is reported —
   sharing that changed results would be a bug, not a speedup.  The
   warm plans/s lands in the JSON report under [campaign_plans_per_s]
   and is regression-gated (inverted: a halved throughput fails CI). *)
let campaign () =
  header "Campaign engine: 200 chaos plans, cold rebuild vs shared votes";
  clear "campaign_plans_per_s";
  (* 4000 relays: large enough that per-plan reconstruction (dominated
     by vote generation, which scales with the relay count) is the
     honest bottleneck a cold campaign pays, while 200 warm plans stay
     well under a minute. *)
  let config =
    {
      Exec.Chaos.default_config with
      Exec.Chaos.seed = "campaign-bench";
      plans = 200;
      n_relays = 4000;
    }
  in
  let n_plans = config.Exec.Chaos.plans in
  let base = Exec.Chaos.base_spec config in
  let specs = List.init n_plans (fun index -> Exec.Chaos.sample_spec config ~index) in
  let summary (r : Protocols.Runenv.report) =
    ( r.Protocols.Runenv.success,
      r.Protocols.Runenv.agreement,
      r.Protocols.Runenv.decided_at_latest,
      r.Protocols.Runenv.dropped )
  in
  let t0 = Unix.gettimeofday () in
  let cold_reports =
    List.map (fun spec -> summary (E.run E.Ours (Protocols.Runenv.of_spec spec))) specs
  in
  let cold_s = Unix.gettimeofday () -. t0 in
  (* Warm timing includes the one-off sharing setup (vote generation,
     context construction): that is the cost a real campaign pays. *)
  let t0 = Unix.gettimeofday () in
  let warm_reports =
    Exec.Campaign.map ~base ~votes:(E.votes_for_spec base)
      (fun ctx spec ->
        summary (E.run E.Ours (Exec.Campaign.env_of ctx (Exec.Campaign.plan_of_spec spec))))
      specs
  in
  let warm_s = Unix.gettimeofday () -. t0 in
  if warm_reports <> cold_reports then
    failwith "campaign: warm reports differ from cold reports";
  let cold_rate = float_of_int n_plans /. cold_s in
  let warm_rate = float_of_int n_plans /. warm_s in
  let name = Printf.sprintf "campaign-chaos-%d" n_plans in
  Printf.printf
    "%-28s cold %7.2f s (%6.2f plans/s)\n%-28s warm %7.2f s (%6.2f plans/s)  %.2fx\n"
    name cold_s cold_rate name warm_s warm_rate (cold_s /. warm_s);
  record "campaign_plans_per_s" (name ^ "/cold") (Float cold_rate);
  record "campaign_plans_per_s" name (Float warm_rate);
  record "campaign_plans_per_s" (name ^ "/speedup") (Float (cold_s /. warm_s))

(* --- defense head-to-head --------------------------------------------------- *)

(* The headline table the paper's Figure 11 doesn't have: the 200-plan
   chaos campaign rerun under each defense preset, counting the plans
   that break the deployed v3 protocol and the paper's partial-
   synchrony protocol.  "Break" is a failed run ([success = false]).
   The counts land in the JSON report under [defense_break_counts] and
   are exact-match gated in CI; the wall time joins [macro_wall_s]
   under the ordinary 2x gate.  A rerun of one defended column at a
   different worker count asserts the table is a pure function of the
   configuration. *)
let defense () =
  header "Defense toolbox: 200 chaos plans x {none, admission, rotation, both}";
  clear "defense_break_counts";
  let plans = 200 in
  let breaks ~jobs preset =
    let config =
      {
        Exec.Chaos.default_config with
        Exec.Chaos.plans;
        defense = (if Defense.Plan.is_empty preset then None else Some preset);
      }
    in
    let base = Exec.Chaos.base_spec config in
    let broken =
      Exec.Campaign.map ~jobs ~votes:(E.votes_for_spec base) ~base
        (fun ctx index ->
          let spec = Exec.Chaos.sample_spec config ~index in
          let env = Exec.Campaign.env_of ctx (Exec.Campaign.plan_of_spec spec) in
          ( (not (E.run E.Current env).Protocols.Runenv.success),
            not (E.run E.Ours env).Protocols.Runenv.success ))
        (List.init plans Fun.id)
    in
    let count f = List.length (List.filter f broken) in
    (count fst, count snd)
  in
  let name = Printf.sprintf "defense-chaos-%d" plans in
  let t0 = Unix.gettimeofday () in
  let table =
    List.map
      (fun (label, preset) -> (label, preset, breaks ~jobs:!jobs preset))
      [
        ("none", Defense.Plan.none);
        ("admission", Defense.Plan.admission_only);
        ("rotation", Defense.Plan.rotation_only);
        ("both", Defense.Plan.both);
      ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "%-12s %14s %14s\n" "defense" "v3 breaks" "ours breaks";
  List.iter
    (fun (label, _, (v3, ours)) ->
      Printf.printf "%-12s %10d/%d %10d/%d\n" label v3 plans ours plans)
    table;
  (* Determinism: the defended column rerun on a different worker count
     must reproduce the committed counts exactly. *)
  let rotation_counts =
    let _, _, counts = List.nth table 2 in
    counts
  in
  let replay = breaks ~jobs:(if !jobs = 1 then 2 else 1) Defense.Plan.rotation_only in
  if replay <> rotation_counts then
    failwith "defense: break counts changed across --jobs";
  Printf.printf "replay (jobs varied): rotation column identical\n";
  Printf.printf "%-28s %8.3f s wall\n" name wall;
  List.iter
    (fun (label, _, (v3, ours)) ->
      record "defense_break_counts" (Printf.sprintf "%s/%s/v3" name label) (Int v3);
      record "defense_break_counts" (Printf.sprintf "%s/%s/ours" name label) (Int ours))
    table;
  record "macro_wall_s" name (Float wall)

(* --- distribution macro bench ---------------------------------------------- *)

(* The paper's worst case, end to end: agreement run, then a
   million-client flash crowd hitting the cache tier after a 3-hour
   halt — once serving consensus diffs, once full documents.  The wall
   time goes through the regression gate like the other macro numbers;
   the simulated metrics (recovery times, bytes per cache) are
   deterministic and land in their own JSON section. *)
let dist () =
  header "Distribution tier: 1M-client flash crowd after a 3-hour halt";
  clear "dist_wall_s";
  clear "dist_metrics";
  let flash name ~diffs =
    let distribution =
      Some { Torclient.Distribution.default_config with halt = 10800.; diffs }
    in
    let env =
      Protocols.Runenv.of_spec
        {
          Protocols.Runenv.Spec.default with
          seed = "dist-bench";
          n_relays = 2000;
          distribution;
        }
    in
    let t0 = Unix.gettimeofday () in
    let report = E.run E.Ours env in
    let wall = Unix.gettimeofday () -. t0 in
    record "dist_wall_s" name (Float wall);
    match report.Protocols.Runenv.distribution with
    | None -> failwith (name ^ ": no distribution outcome")
    | Some o ->
        let t90 =
          Option.value o.Torclient.Distribution.time_to_90pct_fresh ~default:nan
        in
        let tfull =
          Option.value o.Torclient.Distribution.time_to_full_recovery ~default:nan
        in
        let mb_per_cache = o.Torclient.Distribution.bytes_per_cache /. 1e6 in
        Printf.printf
          "%-28s %8.3f s wall  t90 %7.1f s  full %7.1f s  %10.1f MB/cache\n" name
          wall t90 tfull mb_per_cache;
        record "dist_metrics" (name ^ "-t90_s") (Float t90);
        record "dist_metrics" (name ^ "-tfull_s") (Float tfull);
        record "dist_metrics" (name ^ "-mb_per_cache") (Float mb_per_cache)
  in
  flash "dist-flash-crowd-1M" ~diffs:true;
  flash "dist-flash-crowd-1M-full" ~diffs:false;
  Printf.printf
    "(1M clients as cache-attached cohorts; with consensus diffs the same\n\
    \ recovery costs a small fraction of the full-document bytes)\n"

(* --- JSON report ----------------------------------------------------------- *)

let emit_json path =
  let open Obs.Json in
  let meta =
    [
      ("commit", String !meta_commit);
      ("date", String !meta_date);
      ("ocaml", String Sys.ocaml_version);
      ("cores", Int (Domain.recommended_domain_count ()));
    ]
  in
  let sections = List.map (fun (name, entries) -> (name, Obj !entries)) sections in
  let oc = open_out path in
  output_string oc
    (to_string (Obj (("schema", String "torda-bench/2") :: ("meta", Obj meta) :: sections)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* --- driver ---------------------------------------------------------------- *)

let targets =
  [
    ("fig1", fig1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig10", fig10);
    ("fig11", fig11);
    ("table1", table1);
    ("table2", table2);
    ("cost", cost);
    ("outage", outage);
    ("ablation", ablation);
    ("micro", micro);
    ("macro", macro);
    ("campaign", campaign);
    ("defense", defense);
    ("dist", dist);
  ]

let rec parse_args = function
  | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 && n <= Exec.Pool.max_jobs ->
          jobs := n;
          parse_args rest
      | Some 0 ->
          jobs := Exec.Pool.default_jobs ();
          parse_args rest
      | Some _ | None ->
          Printf.eprintf "bad --jobs value %S (expected an integer in [0, %d])\n" n
            Exec.Pool.max_jobs;
          exit 1)
  | "--jobs" :: [] ->
      prerr_endline "--jobs requires a value";
      exit 1
  | "--json" :: path :: rest ->
      json_path := Some path;
      parse_args rest
  | "--json" :: [] ->
      prerr_endline "--json requires a path";
      exit 1
  | "--meta-commit" :: v :: rest ->
      meta_commit := v;
      parse_args rest
  | "--meta-commit" :: [] ->
      prerr_endline "--meta-commit requires a value";
      exit 1
  | "--meta-date" :: v :: rest ->
      meta_date := v;
      parse_args rest
  | "--meta-date" :: [] ->
      prerr_endline "--meta-date requires a value";
      exit 1
  | "--quota" :: s :: rest -> (
      match float_of_string_opt s with
      | Some q when q > 0. ->
          quota := q;
          parse_args rest
      | Some _ | None ->
          Printf.eprintf "bad --quota value %S (expected seconds > 0)\n" s;
          exit 1)
  | "--quota" :: [] ->
      prerr_endline "--quota requires a value";
      exit 1
  | names -> names

let run_target name f =
  let t0 = Unix.gettimeofday () in
  f ();
  record "target_wall_s" name (Float (Unix.gettimeofday () -. t0))

let () =
  (match parse_args (List.tl (Array.to_list Sys.argv)) with
  | [] -> List.iter (fun (name, f) -> run_target name f) targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> run_target name f
          | None ->
              Printf.eprintf "unknown target %S; known: %s\n" name
                (String.concat ", " (List.map fst targets));
              exit 1)
        names);
  Option.iter emit_json !json_path
