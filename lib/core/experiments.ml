module Runenv = Protocols.Runenv
module Rng = Tor_sim.Rng
module Job = Exec.Job

type protocol = Exec.Job.protocol = Current | Synchronous | Ours

let protocol_name = Exec.Job.protocol_name

(* Raw protocol drivers; figure internals that only need a
   [run_result] call these directly. *)
let driver = function
  | Current -> Protocols.Current_v3.run
  | Synchronous -> Protocols.Sync_ic.run
  | Ours -> fun env -> Protocol.run env

let default_seed = "torpartial"

(* Distribution glue: once the authorities produce a majority-signed
   document, hand it to the cache/client tier.  The "previous hour"
   document a diff would be computed against is synthesized from the
   produced consensus by undoing plausible churn (per-hour rates from
   Workload.evolve), seeded from the document digest so the
   diff size is a pure function of the run.  Both sizes come from the
   documents' header fields and entries: no text is built or hashed. *)
let previous_document ~rng ~hours (c : Dirdoc.Consensus.t) =
  (* Hourly consensus changes come from relay churn alone (measured
     bandwidths are smoothed and stable hour-over-hour — see
     [consdiff_savings]), so the previous document is the produced one
     minus the relays that joined in the meantime, at the default
     ~1.5%/hour join rate compounded over the gap. *)
  let keep_prob = 0.985 ** float_of_int hours in
  {
    Torclient.Consdiff.valid_after =
      c.Dirdoc.Consensus.valid_after -. (3600. *. float_of_int hours);
    n_votes = c.Dirdoc.Consensus.n_votes;
    entries =
      Array.to_seq c.Dirdoc.Consensus.entries
      |> Seq.filter (fun (_ : Dirdoc.Consensus.entry) -> Rng.float rng 1. <= keep_prob)
      |> Array.of_seq;
  }

let distribution_outcome (env : Runenv.t) (result : Runenv.run_result)
    (cfg : Torclient.Distribution.config) =
  match Runenv.majority_signed ~n:env.Runenv.n result with
  | None -> None
  | Some c ->
      let full_bytes = Dirdoc.Consensus.text_size c in
      let diff_bytes =
        if cfg.Torclient.Distribution.diffs then begin
          let rng =
            Rng.of_string_seed
              ("consdiff|" ^ Crypto.Digest32.hex (Dirdoc.Consensus.digest c))
          in
          let hours =
            1 + int_of_float (cfg.Torclient.Distribution.halt /. 3600.)
          in
          Some
            (Torclient.Consdiff.wire_size
               ~base:(previous_document ~rng ~hours c)
               ~target:(Torclient.Consdiff.of_consensus c))
        end
        else None
      in
      (* The distribution tier runs on its own clock: the document
         becomes available [halt] seconds into the outage plus the
         agreement run's decision latency, and gets the same amount of
         simulated time the agreement core had. *)
      let available_at =
        cfg.Torclient.Distribution.halt
        +. Option.value (Runenv.decided_at_latest result) ~default:0.
      in
      let horizon = available_at +. env.Runenv.horizon in
      Some (Torclient.Distribution.run cfg ~available_at ~full_bytes ~diff_bytes ~horizon)

(* The one execution path shared by the CLI, scenario files, the
   benches, and the sweep pool: every simulation of a named protocol
   goes through here and comes back as a structured report. *)
let run protocol env =
  let result = driver protocol env in
  let distribution =
    match env.Runenv.distribution with
    | Some cfg when Runenv.success env result ->
        distribution_outcome env result cfg
    | Some _ | None -> None
  in
  Runenv.report env ?distribution result

let all_protocols = [ Current; Synchronous; Ours ]

(* Reuse one vote population across protocol and bandwidth sweeps —
   and across sweep workers, seeds and campaign batches: vote
   generation dominates setup cost, and sharing it also makes
   cross-protocol comparisons exact.  The generated votes depend only
   on (seed, n, n_relays, valid_after, divergence), so the cache is
   keyed by exactly those fields (via the canonical spec digest of a
   spec reduced to them) and never changes results.  It is
   domain-safe, so parallel sweep workers share it too. *)
let votes_cache : Dirdoc.Vote.t array Exec.Cache.t = Exec.Cache.create ()

(* A spec carrying only the vote-relevant fields; everything else at
   default so unrelated fields (attacks, horizon, bandwidth, ...)
   cannot fragment the cache. *)
let vote_spec (s : Runenv.Spec.t) =
  {
    Runenv.Spec.default with
    Runenv.Spec.seed = s.Runenv.Spec.seed;
    n = s.Runenv.Spec.n;
    n_relays = s.Runenv.Spec.n_relays;
    valid_after = s.Runenv.Spec.valid_after;
    divergence = s.Runenv.Spec.divergence;
  }

let votes_for_spec (s : Runenv.Spec.t) =
  let vs = vote_spec s in
  Exec.Cache.find_or_compute votes_cache ~key:(Runenv.Spec.digest vs) (fun () ->
      (Runenv.of_spec vs).Runenv.votes)

let spec ~attacks ~n_relays = { Runenv.Spec.default with n_relays; attacks }

let env_of_spec (s : Runenv.Spec.t) =
  Runenv.of_spec ~votes:(votes_for_spec s) s

let env ~attacks ~n_relays = env_of_spec (spec ~attacks ~n_relays)

let run_job (job : Job.t) =
  Job.outcome job (run job.Job.protocol (env_of_spec job.Job.spec))

let run_jobs ?(jobs = 1) job_list = Exec.Pool.map ~jobs run_job job_list

(* --- Figure 1 ----------------------------------------------------------- *)

let fig1 () =
  let attacks = Attack.Ddos.bandwidth_attack ~n:9 () in
  let e = env ~attacks ~n_relays:8000 in
  let result = Protocols.Current_v3.run e in
  (* Show the log of an unattacked authority, like the paper. *)
  Tor_sim.Trace.dump ~node:8 result.Runenv.trace

(* --- Figure 6 ----------------------------------------------------------- *)

let fig6 () =
  let rng = Rng.of_string_seed (default_seed ^ "-metrics") in
  let series = Dirdoc.Metrics_trace.series ~rng () in
  (Dirdoc.Metrics_trace.monthly series, Dirdoc.Metrics_trace.mean series)

(* --- Figure 7 ----------------------------------------------------------- *)

let default_relay_counts = [ 1000; 2000; 3000; 4000; 5000; 6000; 7000; 8000; 9000; 10000 ]

let min_bandwidth_for_success ~n_relays =
  (* Each probe is one job; a binary search never probes a bandwidth
     twice.  It stops at 0.1 Mbit/s precision. *)
  let ok mbit =
    let attacks =
      Attack.Ddos.bandwidth_attack ~n:9 ~residual_bits_per_sec:(mbit *. 1e6) ()
    in
    let job = { Job.protocol = Current; spec = spec ~attacks ~n_relays } in
    (run_job job).Job.success
  in
  let rec search lo hi =
    if hi -. lo < 0.1 then hi
    else
      let mid = (lo +. hi) /. 2. in
      if ok mid then search lo mid else search mid hi
  in
  if ok 0.05 then 0.05 else search 0.05 100.

let fig7 ?(jobs = 1) () =
  (* The binary searches are sequential per relay count but
     independent across counts, so that is the parallel axis. *)
  Exec.Pool.map ~jobs
    (fun n_relays -> (n_relays, min_bandwidth_for_success ~n_relays))
    default_relay_counts

(* --- Figure 10 ----------------------------------------------------------- *)

type fig10_cell = {
  protocol : protocol;
  bandwidth_mbit : float;
  n_relays : int;
  latency : float option;
}

let default_bandwidths = [ 50.; 20.; 10.; 1.; 0.5 ]

let fig10 ?(jobs = 1) () =
  let cells =
    Exec.Sweep.cells
      (Exec.Sweep.make ~protocols:all_protocols ~bandwidths_mbit:default_bandwidths
         ~relay_counts:default_relay_counts ())
  in
  let outcomes = run_jobs ~jobs (List.map (fun c -> c.Exec.Sweep.job) cells) in
  List.map2
    (fun (c : Exec.Sweep.cell) (o : Job.outcome) ->
      {
        protocol = c.protocol;
        bandwidth_mbit = c.bandwidth_mbit;
        n_relays = c.n_relays;
        latency = (if o.Job.success then o.Job.success_latency else None);
      })
    cells outcomes

(* --- Figure 11 ----------------------------------------------------------- *)

type fig11_row = { protocol : protocol; total_latency : float option }

(* 25 minutes until the lock-step protocols' next scheduled run after
   the 5-minute attack, plus the 10-minute protocol (paper §6.2). *)
let baseline_fallback_seconds = 2100.

let fig11 ?(jobs = 1) () =
  let attacks = Attack.Ddos.knockout ~n:9 () in
  let job_of protocol = { Job.protocol; spec = spec ~attacks ~n_relays:8000 } in
  let outcomes = run_jobs ~jobs (List.map job_of all_protocols) in
  List.map2
    (fun protocol (o : Job.outcome) ->
      let total_latency =
        if o.Job.success then o.Job.decided_at_latest
        else
          match protocol with
          | Current | Synchronous -> Some baseline_fallback_seconds
          | Ours -> None
      in
      { protocol; total_latency })
    all_protocols outcomes

(* --- Table 1 ------------------------------------------------------------- *)

type table1_row = {
  protocol : protocol;
  n : int;
  n_relays : int;
  total_bytes : int;
  bytes_by_label : (string * int) list;
}

let table1_row protocol ~n ~n_relays =
  let e = Runenv.of_spec { Runenv.Spec.default with n; n_relays } in
  let result = driver protocol e in
  let stats = result.Runenv.stats in
  {
    protocol;
    n;
    n_relays;
    total_bytes = Tor_sim.Stats.total_bytes_sent stats;
    bytes_by_label = Tor_sim.Stats.labels stats;
  }

let table1 () =
  List.concat_map
    (fun protocol ->
      List.map (fun n -> table1_row protocol ~n ~n_relays:1000) [ 5; 7; 9; 13 ]
      @ List.map (fun n_relays -> table1_row protocol ~n:9 ~n_relays) [ 1000; 2000; 4000 ])
    all_protocols

(* --- Table 2 ------------------------------------------------------------- *)

type table2_row = { sub_protocol : string; rounds : int }

let table2 () =
  let rows =
    [
      { sub_protocol = "Dissemination"; rounds = 2 };
      { sub_protocol = "Agreement (our HotStuff variant)"; rounds = 5 };
      { sub_protocol = "Aggregation"; rounds = 2 };
    ]
  in
  (* Empirical check: on a uniform-latency network with tiny documents
     and ample bandwidth, the good-case decision time divided by the
     one-way latency approximates the structural round count. *)
  let latency = 0.5 in
  let n = 9 in
  let keyring = Crypto.Keyring.create ~seed:default_seed ~n () in
  let base = Runenv.of_spec { Runenv.Spec.default with n; n_relays = 10 } in
  let e =
    {
      base with
      Runenv.keyring;
      topology = Tor_sim.Topology.uniform ~n ~latency;
      bandwidth_bits_per_sec = 10e9;
    }
  in
  let result = Protocol.run e in
  let measured =
    match Runenv.decided_at_latest result with
    | Some t -> t /. latency
    | None -> nan
  in
  (rows, measured)

(* --- Section 4.3 cost ----------------------------------------------------- *)

let cost_rows () =
  let instance = Attack.Cost.break_one_run () in
  [
    ("flood per target (Mbit/s)", instance.Attack.Cost.flood_mbit_per_sec);
    ("attack duration (s)", instance.Attack.Cost.seconds);
    ("cost to break one run ($)", instance.Attack.Cost.usd);
    ("cost per month ($)", Attack.Cost.monthly_usd instance);
    ("Jansen et al. bridges ($/month)", Attack.Cost.jansen_bridges_monthly_usd);
    ("Jansen et al. scanners ($/month)", Attack.Cost.jansen_scanners_monthly_usd);
  ]

(* --- Table 1 complexity fits ------------------------------------------------ *)

let table1_fits rows =
  List.filter_map
    (fun protocol ->
      let points =
        List.filter_map
          (fun r ->
            if r.protocol = protocol && r.n_relays = 1000 then
              Some (float_of_int r.n, float_of_int r.total_bytes)
            else None)
          rows
        (* de-duplicate the n = 9 row that appears in both sweeps *)
        |> List.sort_uniq compare
      in
      if List.length points >= 3 then
        Some (protocol, Tor_sim.Summary.power_law_fit points)
      else None)
    all_protocols

(* --- Ablations ----------------------------------------------------------------- *)

let recovery_vs_view_timeout () =
  let attacks = Attack.Ddos.knockout ~n:9 () in
  List.map
    (fun view_timeout ->
      let e = env ~attacks ~n_relays:2000 in
      let params = { Protocol.default_params with Protocol.view_timeout } in
      let result = Protocol.run ~params e in
      let recovery =
        if Runenv.success e result then
          Option.map (fun t -> t -. 300.) (Runenv.decided_at_latest result)
        else None
      in
      (view_timeout, recovery))
    [ 1.; 5.; 15.; 30. ]

let latency_vs_doc_timeout () =
  let behaviors = Array.make 9 Runenv.Honest in
  behaviors.(1) <- Runenv.Silent;
  behaviors.(7) <- Runenv.Silent;
  List.map
    (fun doc_timeout ->
      let e = Runenv.of_spec { Runenv.Spec.default with behaviors = Some behaviors } in
      let params = { Protocol.default_params with Protocol.doc_timeout } in
      let result = Protocol.run ~params e in
      let latency =
        if Runenv.success e result then Runenv.success_latency result else None
      in
      (doc_timeout, latency))
    [ 30.; 150.; 300. ]

type engine_row = {
  engine : string;
  scenario : string;
  engine_latency : float option;
  agreement_bytes : int;
}

let agreement_engines () =
  let engines =
    [
      ("hotstuff", fun e -> Protocol.Over_hotstuff.run e);
      ("tendermint", fun e -> Protocol.Over_tendermint.run e);
      ("pbft", fun e -> Protocol.Over_pbft.run e);
    ]
  in
  let scenarios =
    [
      ("healthy", []);
      ("knockout", Attack.Ddos.knockout ~n:9 ());
    ]
  in
  List.concat_map
    (fun (engine, run) ->
      List.map
        (fun (scenario, attacks) ->
          let e = env ~attacks ~n_relays:1000 in
          let result = run e in
          {
            engine;
            scenario;
            engine_latency =
              (if Runenv.success e result then Runenv.decided_at_latest result else None);
            agreement_bytes = Tor_sim.Stats.label_bytes result.Runenv.stats "agreement";
          })
        scenarios)
    engines

(* Hourly consdiff savings over a churning network: how much client
   download the diff path avoids, using the live network's churn
   scale. *)
let consdiff_savings () =
  let rng = Rng.of_string_seed (default_seed ^ "-churn") in
  let keyring = Crypto.Keyring.create ~seed:default_seed ~n:9 () in
  (* Bandwidth measurements are stable hour-over-hour in practice
     (authorities smooth them), so views here are the ground truth:
     hourly consensus changes come from relay churn alone, which is
     what the consdiff mechanism exploits. *)
  let consensus_of ~valid_after relays =
    let votes =
      Array.init 9 (fun authority ->
          Dirdoc.Vote.create ~authority
            ~authority_fingerprint:(Crypto.Keyring.fingerprint keyring authority)
            ~nickname:(Dirdoc.Workload.authority_nickname authority)
            ~published:(valid_after -. 600.) ~valid_after ~relays)
    in
    Dirdoc.Aggregate.consensus ~valid_after ~votes:(Array.to_list votes)
  in
  let relays0 = Dirdoc.Workload.relays ~rng ~n:2000 ~published:0. in
  (* The diff's share of the full download, both sized from entries. *)
  let savings ~base ~target =
    let diff =
      Torclient.Consdiff.wire_size ~base:(Torclient.Consdiff.of_consensus base)
        ~target:(Torclient.Consdiff.of_consensus target)
    in
    Float.max 0.
      (1. -. (float_of_int diff /. float_of_int (Dirdoc.Consensus.text_size target)))
  in
  let rec hours_loop hour relays previous acc =
    if hour > 4 then List.rev acc
    else begin
      let valid_after = 3600. *. float_of_int hour in
      let c = consensus_of ~valid_after relays in
      let acc =
        match previous with
        | None -> acc
        | Some prev -> (hour, savings ~base:prev ~target:c) :: acc
      in
      let next = Dirdoc.Workload.evolve ~rng ~published:valid_after relays in
      hours_loop (hour + 1) next (Some c) acc
    end
  in
  hours_loop 0 relays0 None []
