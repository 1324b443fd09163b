(* Tests for the parallel sweep engine: Spec digest stability, the
   bounded-queue domain pool, the domain-safe result cache, sweep
   compilation, jobs=1 vs jobs=4 determinism over a Figure 10
   sub-grid, and campaign arenas whose reuse is bit-identical to fresh
   construction. *)

module R = Protocols.Runenv
module E = Torpartial.Experiments

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Spec digests ----------------------------------------------------------- *)

let test_spec_digest_stability () =
  let d1 = R.Spec.digest R.Spec.default in
  let d2 = R.Spec.digest { R.Spec.default with R.Spec.n_relays = 1000 } in
  checki "64 hex chars" 64 (String.length d1);
  Alcotest.(check string) "structurally equal specs digest equally" d1 d2;
  let variants =
    [
      { R.Spec.default with R.Spec.seed = "other" };
      { R.Spec.default with R.Spec.n_relays = 1001 };
      { R.Spec.default with R.Spec.bandwidth_bits_per_sec = 10e6 };
      { R.Spec.default with R.Spec.horizon = 3600. };
      { R.Spec.default with R.Spec.attacks = Attack.Ddos.knockout ~n:9 () };
      { R.Spec.default with R.Spec.behaviors = Some (Array.make 9 R.Silent) };
      {
        R.Spec.default with
        R.Spec.divergence = Some Dirdoc.Workload.default_divergence;
      };
      {
        R.Spec.default with
        R.Spec.behaviors =
          Some
            (let b = Array.make 9 R.Honest in
             b.(0) <- R.Crashed { start = 10.; stop = 60. };
             b);
      };
      {
        R.Spec.default with
        R.Spec.distribution = Some Torclient.Distribution.default_config;
      };
      {
        R.Spec.default with
        R.Spec.distribution =
          Some { Torclient.Distribution.default_config with halt = 10800. };
      };
      {
        R.Spec.default with
        R.Spec.distribution =
          Some { Torclient.Distribution.default_config with diffs = false };
      };
      {
        R.Spec.default with
        R.Spec.distribution =
          Some { Torclient.Distribution.default_config with caches = 32 };
      };
      {
        R.Spec.default with
        R.Spec.fault_plan =
          Some
            {
              Tor_sim.Fault.seed = "variant";
              faults =
                [
                  {
                    Tor_sim.Fault.kind = Tor_sim.Fault.Drop { src = 0; dst = 1; prob = 0.5 };
                    start = 0.;
                    stop = 60.;
                  };
                ];
            };
      };
    ]
  in
  List.iteri
    (fun i s ->
      checkb
        (Printf.sprintf "changing field %d changes the digest" i)
        false
        (R.Spec.digest s = d1))
    variants;
  let digests = List.map R.Spec.digest variants in
  checki "variant digests all distinct" (List.length digests)
    (List.length (List.sort_uniq compare digests))

(* --- Pool ------------------------------------------------------------------- *)

let test_pool_empty () =
  Alcotest.(check (list int)) "empty list" [] (Exec.Pool.map ~jobs:4 (fun x -> x) [])

let test_pool_order_and_fallback () =
  let input = List.init 25 Fun.id in
  let expect = List.map (fun x -> x * x) input in
  Alcotest.(check (list int)) "jobs=4 preserves order" expect
    (Exec.Pool.map ~jobs:4 (fun x -> x * x) input);
  Alcotest.(check (list int)) "jobs=1 sequential fallback" expect
    (Exec.Pool.map ~jobs:1 (fun x -> x * x) input);
  Alcotest.(check (list int)) "jobs far above item count" expect
    (Exec.Pool.map ~jobs:64 (fun x -> x * x) input)

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Exec.Pool.map ~jobs:0 Fun.id [ 1 ]))

let test_pool_exception () =
  (* The lowest-index failure wins, independent of scheduling; the
     pool must drain and join cleanly rather than hang. *)
  Alcotest.check_raises "lowest-index exception propagates" (Failure "boom 3")
    (fun () ->
      ignore
        (Exec.Pool.map ~jobs:3
           (fun x ->
             if x mod 5 = 3 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 17 Fun.id)))

(* --- Cache ------------------------------------------------------------------ *)

let test_cache_computes_once () =
  let cache = Exec.Cache.create () in
  let count = Atomic.make 0 in
  let compute () =
    Atomic.incr count;
    42
  in
  checki "first call computes" 42 (Exec.Cache.find_or_compute cache ~key:"k" compute);
  checki "second call reads" 42 (Exec.Cache.find_or_compute cache ~key:"k" compute);
  checki "computed once" 1 (Atomic.get count);
  (* 32 concurrent requests for one fresh key: still one computation. *)
  let hits =
    Exec.Pool.map ~jobs:4
      (fun _ ->
        Exec.Cache.find_or_compute cache ~key:"k2" (fun () ->
            Atomic.incr count;
            7))
      (List.init 32 Fun.id)
  in
  checkb "every requester sees the value" true (List.for_all (( = ) 7) hits);
  checki "k2 computed once under contention" 2 (Atomic.get count);
  checki "two completed entries" 2 (Exec.Cache.length cache);
  checkb "find_opt hit" true (Exec.Cache.find_opt cache "k" = Some 42);
  checkb "find_opt miss" true (Exec.Cache.find_opt cache "absent" = None)

let test_cache_exception_not_cached () =
  let cache = Exec.Cache.create () in
  let count = ref 0 in
  Alcotest.check_raises "failure propagates" (Failure "nope") (fun () ->
      ignore
        (Exec.Cache.find_or_compute cache ~key:"k" (fun () ->
             incr count;
             failwith "nope")));
  checki "failed computation is retried" 5
    (Exec.Cache.find_or_compute cache ~key:"k" (fun () ->
         incr count;
         5));
  checki "ran twice" 2 !count

(* --- Sweep compilation ------------------------------------------------------- *)

let test_sweep_compiles_grid () =
  let sweep =
    Exec.Sweep.make
      ~protocols:[ E.Current; E.Ours ]
      ~bandwidths_mbit:[ 10.; 1. ] ~relay_counts:[ 100; 200; 300 ] ()
  in
  checki "size" 12 (Exec.Sweep.size sweep);
  let cells = Exec.Sweep.cells sweep in
  checki "one cell per grid point" 12 (List.length cells);
  let keys = List.map (fun c -> Exec.Job.key c.Exec.Sweep.job) cells in
  checki "job keys all distinct" 12 (List.length (List.sort_uniq compare keys));
  match cells with
  | first :: _ ->
      checkb "protocol-major order" true
        (first.Exec.Sweep.protocol = E.Current
        && first.Exec.Sweep.bandwidth_mbit = 10.
        && first.Exec.Sweep.n_relays = 100)
  | [] -> Alcotest.fail "no cells"

(* --- Determinism across worker counts ---------------------------------------- *)

(* Summarize without the Experiments result cache, so the jobs=1 and
   jobs=4 runs both actually simulate. *)
let summarize (job : Exec.Job.t) =
  let env = R.of_spec job.Exec.Job.spec in
  let report = E.run job.Exec.Job.protocol env in
  ( Exec.Job.key job,
    report.R.success,
    report.R.success_latency,
    report.R.decided_at_latest,
    report.R.total_bytes )

let test_fig10_subgrid_determinism () =
  let sweep = Exec.Sweep.make ~bandwidths_mbit:[ 50. ] ~relay_counts:[ 100; 150 ] () in
  let jobs = Exec.Sweep.jobs sweep in
  let sequential = Exec.Pool.map ~jobs:1 summarize jobs in
  let parallel = Exec.Pool.map ~jobs:4 summarize jobs in
  checkb "jobs=1 and jobs=4 summaries identical" true (sequential = parallel);
  let cells1 = E.fig10 ~bandwidths_mbit:[ 50. ] ~relay_counts:[ 100; 150 ] ~jobs:1 () in
  let cells4 = E.fig10 ~bandwidths_mbit:[ 50. ] ~relay_counts:[ 100; 150 ] ~jobs:4 () in
  checkb "fig10 cells identical across worker counts" true (cells1 = cells4)

let test_run_job_cached () =
  (* Distinctively-seeded job so this test owns its cache entry. *)
  let job =
    {
      Exec.Job.protocol = E.Ours;
      spec = { R.Spec.default with R.Spec.seed = "test-run-job-cached"; n_relays = 100 };
    }
  in
  let o1 = E.run_job job in
  let o2 = E.run_job job in
  checkb "same outcome object from the cache" true (o1 == o2);
  checkb "key matches the job" true (o1.Exec.Job.key = Exec.Job.key job)

(* --- Campaign ----------------------------------------------------------------- *)

let campaign_base =
  { R.Spec.default with R.Spec.seed = "campaign-test"; n_relays = 100; horizon = 600. }

let test_campaign_plan_roundtrip () =
  let spec =
    {
      campaign_base with
      R.Spec.attacks = Attack.Ddos.knockout ~n:9 ();
      behaviors = Some (Array.make 9 R.Silent);
    }
  in
  checkb "spec_of inverts plan_of_spec" true
    (Exec.Campaign.spec_of ~base:campaign_base (Exec.Campaign.plan_of_spec spec) = spec);
  let ctx = Exec.Campaign.create campaign_base in
  checkb "base spec preserved" true (Exec.Campaign.base_spec ctx = campaign_base);
  let plan = Exec.Campaign.plan_of_spec spec in
  Alcotest.(check string) "ctx digest matches the assembled spec digest"
    (R.Spec.digest spec)
    (Exec.Campaign.digest ctx plan)

let test_campaign_map_determinism () =
  (* Same items, same results, for every worker count — each worker
     builds its own context, so chunking must not leak into results. *)
  let plans =
    List.init 6 (fun i ->
        Exec.Campaign.plan_of_spec
          (Exec.Chaos.sample_spec
             { Exec.Chaos.default_config with Exec.Chaos.seed = "campaign-map"; n_relays = 100 }
             ~index:i))
  in
  let eval ctx plan =
    let report = E.run E.Ours (Exec.Campaign.env_of ctx plan) in
    ( Exec.Campaign.digest ctx plan,
      report.R.success,
      report.R.decided_at_latest,
      report.R.total_bytes )
  in
  let seq = Exec.Campaign.map ~base:campaign_base eval plans in
  let par = Exec.Campaign.map ~jobs:3 ~base:campaign_base eval plans in
  checki "one result per plan" (List.length plans) (List.length seq);
  checkb "jobs=1 and jobs=3 identical" true (seq = par)

(* --- Arena reuse is bit-identical --------------------------------------------- *)

(* Everything observable about a run: the verdicts, traffic totals,
   per-label accounting, each authority's document digest / signature
   count / decision times, and the full trace.  Structural equality on
   [report] itself would compare hash tables, so flatten to a canonical
   summary first. *)
let summary (r : R.report) =
  let auth (a : R.authority_result) =
    ( (match a.R.consensus with
      | Some c -> Crypto.Digest32.hex (Dirdoc.Consensus.digest c)
      | None -> "none"),
      a.R.signatures,
      a.R.decided_at,
      a.R.network_time )
  in
  let stats = r.R.result.R.stats in
  ( ( r.R.protocol,
      r.R.success,
      r.R.agreement,
      r.R.success_latency,
      r.R.decided_at_latest ),
    ( r.R.total_bytes,
      r.R.dropped,
      Tor_sim.Stats.labels stats,
      Tor_sim.Stats.dropped_labels stats ),
    Array.to_list (Array.map auth r.R.result.R.per_authority),
    List.map Tor_sim.Trace.render (Tor_sim.Trace.records r.R.result.R.trace) )

let e2e_spec = { R.Spec.default with R.Spec.n_relays = 400; horizon = 600. }

let flood_spec =
  { e2e_spec with R.Spec.attacks = Attack.Ddos.bandwidth_attack ~n:9 () }

(* Running a plan on a reused (reset) simulator arena must produce
   exactly the report a fresh construction produces.  [warmup] runs a
   *different* plan through the context first, so the arena is
   genuinely dirty — stale heap payloads, interned labels, NIC
   schedules — when the plan under test acquires it. *)
let fresh_vs_reused ~name protocol specs =
  let ctx = Exec.Campaign.create e2e_spec in
  let warmup =
    Exec.Campaign.plan_of_spec
      { e2e_spec with R.Spec.attacks = Attack.Ddos.knockout ~n:9 () }
  in
  ignore (E.run protocol (Exec.Campaign.env_of ctx warmup) : R.report);
  List.iteri
    (fun i spec ->
      let fresh = summary (E.run protocol (R.of_spec spec)) in
      let reused =
        summary
          (E.run protocol (Exec.Campaign.env_of ctx (Exec.Campaign.plan_of_spec spec)))
      in
      checkb (Printf.sprintf "%s plan %d: reused arena == fresh" name i) true
        (reused = fresh))
    specs

let test_arena_reuse_ours () = fresh_vs_reused ~name:"ours" E.Ours [ e2e_spec; flood_spec ]

let test_arena_reuse_current () =
  fresh_vs_reused ~name:"current" E.Current [ e2e_spec; flood_spec ]

let test_arena_reuse_sync () =
  fresh_vs_reused ~name:"synchronous" E.Synchronous [ e2e_spec; flood_spec ]

let test_arena_reuse_chaos () =
  (* 20 seeded chaos plans — faults, partitions, crash windows,
     misbehaving authorities — streamed through ONE context, each
     compared against its own fresh run. *)
  let config =
    { Exec.Chaos.default_config with Exec.Chaos.n_relays = 120; horizon = 900. }
  in
  let ctx = Exec.Campaign.create (Exec.Chaos.base_spec config) in
  for index = 0 to 19 do
    let spec = Exec.Chaos.sample_spec config ~index in
    let fresh = summary (E.run E.Ours (R.of_spec spec)) in
    let reused =
      summary (E.run E.Ours (Exec.Campaign.env_of ctx (Exec.Campaign.plan_of_spec spec)))
    in
    checkb (Printf.sprintf "chaos plan %d: reused arena == fresh" index) true
      (reused = fresh)
  done

let test_arena_reset_after_exception () =
  (* A run that dies mid-simulation leaves the arena dirty at an
     arbitrary point; reset-on-acquire must still hand back a simulator
     that reproduces the fresh result. *)
  let env = { (R.of_spec e2e_spec) with R.arena = Some (R.Arena.create ()) } in
  let module S = R.Simulator (struct
    type msg = unit
  end) in
  let engine, _net = S.obtain ~driver:"test-exn" env in
  ignore
    (Tor_sim.Engine.schedule engine ~owner:0 ~at:1.0 (fun () -> failwith "mid-run"));
  Alcotest.check_raises "simulated failure propagates" (Failure "mid-run") (fun () ->
      Tor_sim.Engine.run engine);
  (* Same slot, acquired again: reset on acquisition, fully reusable. *)
  let engine2, net2 = S.obtain ~driver:"test-exn" env in
  checki "queue empty after reset" 0 (Tor_sim.Engine.pending engine2);
  let delivered = ref 0 in
  Tor_sim.Net.set_handler net2 (fun ~dst:_ ~src:_ () -> incr delivered);
  Tor_sim.Net.send net2 ~src:0 ~dst:1 ~size:100 ();
  Tor_sim.Engine.run engine2;
  checki "reused simulator delivers" 1 !delivered;
  (* And a full protocol run through the same dirtied arena still
     matches fresh. *)
  let fresh = summary (E.run E.Ours (R.of_spec e2e_spec)) in
  let reused = summary (E.run E.Ours env) in
  checkb "protocol run after exception == fresh" true (reused = fresh)

let test_arena_obs_reset () =
  (* Telemetry accumulated by one run must not leak into the next
     run's histograms/spans through the reused network and engine. *)
  let ctx = Exec.Campaign.create e2e_spec in
  let plan = Exec.Campaign.plan_of_spec e2e_spec in
  let fresh = E.run E.Ours { (R.of_spec e2e_spec) with R.telemetry = true } in
  let first = E.run E.Ours (Exec.Campaign.env_of ~telemetry:true ctx plan) in
  let second = E.run E.Ours (Exec.Campaign.env_of ~telemetry:true ctx plan) in
  let counts r =
    ( Option.map Obs.Metrics.count (R.time_to_decision r),
      Option.map Obs.Metrics.count (R.delivery_latency r "proposal"),
      Option.map (fun (o : R.obs) -> List.length o.R.spans) (R.report_obs r) )
  in
  checkb "first reused telemetry == fresh" true (counts first = counts fresh);
  checkb "second reused telemetry == fresh (no accumulation)" true
    (counts second = counts fresh)

(* --- Chaos ------------------------------------------------------------------ *)

let chaos_config =
  (* Small network so the full campaign (3 protocols x plans x 2 worker
     counts) stays test-sized. *)
  { Exec.Chaos.default_config with Exec.Chaos.seed = "chaos-test"; plans = 6; n_relays = 100 }

let test_chaos_jobs_determinism () =
  let run jobs = Exec.Chaos.check ~config:chaos_config ~run_protocol:E.run ~jobs () in
  let r1 = run 1 in
  let r3 = run 3 in
  checkb "verdicts independent of worker count" true
    (r1.Exec.Chaos.verdicts = r3.Exec.Chaos.verdicts);
  checki "one verdict per plan" chaos_config.Exec.Chaos.plans
    (List.length r1.Exec.Chaos.verdicts);
  checki "no safety violations" 0 r1.Exec.Chaos.safety_violations;
  checki "no liveness violations" 0 r1.Exec.Chaos.liveness_violations

let test_chaos_breaks_current () =
  (* Regression pin: sampled case 15 of the default campaign (seed
     "chaos") breaks the deployed v3 protocol — its only fault plus two
     misbehaving authorities push v3 below the vote majority — while
     the partial-synchrony protocol rides it out. *)
  let spec = Exec.Chaos.sample_spec Exec.Chaos.default_config ~index:15 in
  let env = R.of_spec spec in
  let current = E.run E.Current env in
  let ours = E.run E.Ours env in
  checkb "current v3 fails" false current.R.success;
  checkb "ours succeeds" true ours.R.success;
  checkb "ours agreement holds" true ours.R.agreement

let suite =
  [
    ("spec: digest stability", `Quick, test_spec_digest_stability);
    ("pool: empty job list", `Quick, test_pool_empty);
    ("pool: order and sequential fallback", `Quick, test_pool_order_and_fallback);
    ("pool: invalid jobs rejected", `Quick, test_pool_invalid_jobs);
    ("pool: a job that raises", `Quick, test_pool_exception);
    ("cache: computes once under contention", `Quick, test_cache_computes_once);
    ("cache: exceptions not cached", `Quick, test_cache_exception_not_cached);
    ("campaign: plan/spec roundtrip and digests", `Quick, test_campaign_plan_roundtrip);
    ("campaign: map independent of jobs", `Slow, test_campaign_map_determinism);
    ("arena reuse bit-identical (ours)", `Quick, test_arena_reuse_ours);
    ("arena reuse bit-identical (current)", `Quick, test_arena_reuse_current);
    ("arena reuse bit-identical (synchronous)", `Quick, test_arena_reuse_sync);
    ("arena reuse across chaos plans", `Slow, test_arena_reuse_chaos);
    ("arena reusable after mid-run exception", `Quick, test_arena_reset_after_exception);
    ("arena telemetry does not accumulate", `Quick, test_arena_obs_reset);
    ("sweep: compiles the grid", `Quick, test_sweep_compiles_grid);
    ("sweep: fig10 sub-grid determinism jobs=1 vs jobs=4", `Slow,
      test_fig10_subgrid_determinism);
    ("sweep: run_job memoizes by spec digest", `Quick, test_run_job_cached);
    ("chaos: verdicts independent of jobs", `Slow, test_chaos_jobs_determinism);
    ("chaos: sampled plan breaks current v3", `Quick, test_chaos_breaks_current);
  ]
