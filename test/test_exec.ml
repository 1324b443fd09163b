(* Tests for the batch engines: Spec digest stability, the
   bounded-queue domain pool, the domain-safe vote cache, sweep
   compilation, jobs=1 vs jobs=4 determinism over a Figure 10
   sub-grid, and campaigns whose results do not depend on the worker
   count. *)

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
           (List.init 17 Fun.id)));
  (* The remaining items still run, on one worker as on several. *)
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      Alcotest.check_raises
        (Printf.sprintf "jobs = %d: first exception" jobs)
        (Failure "boom 0")
        (fun () ->
          ignore
            (Exec.Pool.map ~jobs
               (fun x ->
                 Atomic.incr ran;
                 if x < 2 then failwith (Printf.sprintf "boom %d" x))
               [ 0; 1; 2 ]));
      checki (Printf.sprintf "jobs = %d: every item ran" jobs) 3 (Atomic.get ran))
    [ 1; 2 ]

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
  checki "k2 computed once under contention" 2 (Atomic.get count)

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

let test_fig10_subgrid_determinism () =
  (* The path [E.fig10] takes: an [Exec.Sweep] grid through [run_jobs]. *)
  let jobs =
    Exec.Sweep.jobs (Exec.Sweep.make ~bandwidths_mbit:[ 50. ] ~relay_counts:[ 100; 150 ] ())
  in
  let outcomes1 = E.run_jobs ~jobs:1 jobs in
  let outcomes4 = E.run_jobs ~jobs:4 jobs in
  checki "one outcome per cell" 6 (List.length outcomes1);
  checkb "fig10 cells identical across worker counts" true (outcomes1 = outcomes4)

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
  (* Same items, same results, for every worker count: the workers
     share one context, and every run builds its own environment. *)
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

(* --- Aggregation memo ---------------------------------------------------------- *)

(* Authority 0's document in a fault-free Ours run. *)
let ours_document env =
  Option.get (E.run E.Ours env).R.result.R.per_authority.(0).R.consensus

(* Authority 3 equivocates in Ours, under the campaign's base spec. *)
let equivocating =
  let behaviors = Array.make 9 R.Honest in
  behaviors.(3) <- R.Equivocating;
  { campaign_base with R.Spec.behaviors = Some behaviors }

(* Authority 3's variant in the memo of [env]'s population. *)
let variant_of (env : R.t) =
  Dirdoc.Aggregate.variant ~memo:(Dirdoc.Aggregate.Memo.of_population env.R.votes) 3

(* Every run over one vote population aggregates through that
   population's memo, and an equivocator sends the variant stored
   there; a population built anew gets a memo of its own. *)
let test_memo_shared_by_population () =
  let plan = Exec.Campaign.plan_of_spec campaign_base in
  let document ctx = ours_document (Exec.Campaign.env_of ctx plan) in
  let ctx = Exec.Campaign.create campaign_base in
  checkb "two runs on one context decide one document" true (document ctx == document ctx);
  let a = document (Exec.Campaign.create campaign_base)
  and b = document (Exec.Campaign.create campaign_base) in
  checkb "separate populations decide equal documents" true (Dirdoc.Consensus.equal a b);
  checkb "separate populations do not share them" false (a == b);
  let equivocating_run ctx =
    let env = Exec.Campaign.env_of ctx (Exec.Campaign.plan_of_spec equivocating) in
    ignore (E.run E.Ours env : R.report);
    variant_of env
  in
  checkb "two equivocating runs on one context get one variant" true
    (equivocating_run ctx == equivocating_run ctx);
  let a = equivocating_run (Exec.Campaign.create campaign_base)
  and b = equivocating_run (Exec.Campaign.create campaign_base) in
  checkb "separate populations build equal variants" true (Dirdoc.Vote.equal a b);
  checkb "separate populations do not share them" false (a == b)

(* Builds a population, runs Ours on it with an equivocator and points
   [documents] at the decided document and [variants] at the variant;
   returns the votes if asked to keep them. *)
let[@inline never] population_document documents variants ~keep =
  let votes = (R.of_spec equivocating).R.votes in
  let env = R.of_spec ~votes equivocating in
  Weak.set documents 0 (Some (ours_document env));
  Weak.set variants 0 (Some (variant_of env));
  if keep then Some votes else None

(* The memo keeps a population's documents and variants exactly as
   long as the population: the report is dropped in both cases. *)
let test_memo_lives_with_population () =
  let documents = Weak.create 1 and variants = Weak.create 1 in
  let kept = population_document documents variants ~keep:true in
  Gc.full_major ();
  checkb "document kept while the population lives" true (Weak.check documents 0);
  checkb "variant kept while the population lives" true (Weak.check variants 0);
  ignore (Sys.opaque_identity kept);
  ignore (population_document documents variants ~keep:false : Dirdoc.Vote.t array option);
  Gc.full_major ();
  checkb "document collected with the population" false (Weak.check documents 0);
  checkb "variant collected with the population" false (Weak.check variants 0)

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
    ("memo: shared by every run of one population", `Quick, test_memo_shared_by_population);
    ("memo: lives as long as its population", `Quick, test_memo_lives_with_population);
    ("sweep: compiles the grid", `Quick, test_sweep_compiles_grid);
    ("sweep: fig10 sub-grid determinism jobs=1 vs jobs=4", `Slow,
      test_fig10_subgrid_determinism);
    ("chaos: verdicts independent of jobs", `Slow, test_chaos_jobs_determinism);
    ("chaos: sampled plan breaks current v3", `Quick, test_chaos_breaks_current);
  ]
