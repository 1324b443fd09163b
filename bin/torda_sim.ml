(* torda-sim: command-line driver for the directory-protocol simulator.

     torda-sim run --protocol ours --relays 8000 --attack flood
     torda-sim cost --relays 8000
     torda-sim log --relays 8000 --node 8 *)

open Cmdliner
module R = Protocols.Runenv
module E = Torpartial.Experiments

(* --- shared arguments ------------------------------------------------------ *)

let protocol_conv =
  let parse s =
    match Exec.Job.protocol_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (E.protocol_name p) in
  Arg.conv (parse, print)

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv E.Ours
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol to simulate: $(b,current), $(b,synchronous), or $(b,ours).")

let relays_arg =
  Arg.(
    value
    & opt int 8000
    & info [ "r"; "relays" ] ~docv:"N" ~doc:"Number of relays in the synthetic network.")

let bandwidth_arg =
  Arg.(
    value
    & opt float 250.
    & info [ "b"; "bandwidth" ] ~docv:"MBIT"
        ~doc:"Authority link bandwidth in Mbit/s (default 250, the live value).")

let seed_arg =
  Arg.(
    value
    & opt string "torda-sim"
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed.")

let attack_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("none", []);
             ("flood", [ [ "flood-majority"; "0"; "300"; "0.5" ] ]);
             ("knockout", [ [ "knockout-majority"; "0"; "300" ] ]);
           ])
        []
    & info [ "a"; "attack" ] ~docv:"KIND"
        ~doc:
          "DDoS on 5 of 9 authorities for the first 300 s: $(b,none), $(b,flood) \
           (0.5 Mbit/s residual), or $(b,knockout) (fully offline).")

(* The scenario directives the shared [run]/[log]/[distribute] flags
   stand for.  Floats go as lossless hex words. *)
let flag_directives protocol relays bandwidth seed attack =
  [
    [ "protocol"; E.protocol_name protocol ];
    [ "relays"; string_of_int relays ];
    [ "bandwidth"; Printf.sprintf "%h" bandwidth ];
    [ "seed"; seed ];
  ]
  @ attack

(* Every subcommand reports rejected input the same way: [CMD: message]
   on stderr and exit status 2. *)
let usage_error cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  2

(* Fold [directives] into a scenario for [k]; a rejected spec is a
   usage error. *)
let with_scenario cmd directives k =
  match Torpartial.Scenario.of_directives directives with
  | Error e -> usage_error cmd e
  | Ok scenario -> k scenario

let print_distribution (o : Torclient.Distribution.outcome) =
  let time = function
    | Some t -> Printf.sprintf "%.1f s" t
    | None -> "(not reached)"
  in
  Printf.printf "clients:        %d on %d cache(s), %d cohort(s)\n"
    o.Torclient.Distribution.clients o.Torclient.Distribution.caches
    o.Torclient.Distribution.cohorts;
  Printf.printf "available at:   %.1f s\n" o.Torclient.Distribution.available_at;
  Printf.printf "90%% fresh:      %s\n"
    (time o.Torclient.Distribution.time_to_90pct_fresh);
  Printf.printf "full recovery:  %s\n"
    (time o.Torclient.Distribution.time_to_full_recovery);
  Printf.printf "bytes served:   %.1f MB (%.1f MB/cache mean, %.1f MB hottest)\n"
    (float_of_int o.Torclient.Distribution.bytes_served /. 1e6)
    (o.Torclient.Distribution.bytes_per_cache /. 1e6)
    (float_of_int o.Torclient.Distribution.bytes_per_cache_max /. 1e6);
  Printf.printf "fetches:        %d full, %d diff, %d failed attempt(s)\n"
    o.Torclient.Distribution.full_fetches o.Torclient.Distribution.diff_fetches
    o.Torclient.Distribution.failed_attempts

(* --- run ------------------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run — protocol-phase \
           spans (one track per authority, sim-time timestamps) plus periodic \
           NIC-backlog and event-queue-depth counter tracks.  Open it at \
           $(b,https://ui.perfetto.dev) or $(b,chrome://tracing).  Implies \
           telemetry.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the run's latency histograms (time-to-decision and per-label \
           delivery latency: count, p50, p99, max).  Implies telemetry.")

let print_metrics (o : R.obs) =
  print_endline "metrics:";
  List.iter
    (fun (name, h) ->
      if Obs.Metrics.count h = 0 then
        Printf.printf "  %-40s n=0\n" name
      else
        Printf.printf "  %-40s n=%-6d p50=%8.4fs p99=%8.4fs max=%8.4fs\n" name
          (Obs.Metrics.count h)
          (Obs.Metrics.percentile h 0.5)
          (Obs.Metrics.percentile h 0.99)
          (Obs.Metrics.max_value h))
    (Obs.Metrics.histograms o.R.metrics)

let write_trace path spans (o : R.obs) =
  let oc = open_out path in
  output_string oc (Obs.Trace_event.to_string ~spans ~samples:o.R.samples);
  close_out oc;
  Printf.printf "trace:     %s (%d span(s), %d sample(s))\n" path (List.length spans)
    (List.length o.R.samples)

let run_cmd =
  let action protocol relays bandwidth seed attack trace metrics =
    with_scenario "run" (flag_directives protocol relays bandwidth seed attack)
    @@ fun { Torpartial.Scenario.protocol; spec } ->
    let env = R.of_spec spec in
    let env =
      if trace <> None || metrics then { env with R.telemetry = true } else env
    in
    let report = E.run protocol env in
    Printf.printf "protocol:  %s\n" report.R.protocol;
    Printf.printf "relays:    %d\n" relays;
    Printf.printf "bandwidth: %.1f Mbit/s\n" bandwidth;
    Printf.printf "success:   %b\n" report.R.success;
    (match report.R.success_latency with
    | Some t -> Printf.printf "latency:   %.1f s\n" t
    | None -> print_endline "latency:   (no consensus)");
    Printf.printf "traffic:   %.1f MB total on the wire\n"
      (float_of_int report.R.total_bytes /. 1e6);
    Printf.printf "dropped:   %d message(s)\n" report.R.dropped;
    List.iter
      (fun (label, count) -> Printf.printf "  %-14s %d\n" label count)
      (Tor_sim.Stats.dropped_labels report.R.result.R.stats);
    (match R.report_obs report with
    | None -> ()
    | Some o ->
        Option.iter (fun path -> write_trace path report.R.result.R.spans o) trace;
        if metrics then print_metrics o);
    if report.R.success then 0 else 1
  in
  let term =
    Term.(
      const action $ protocol_arg $ relays_arg $ bandwidth_arg $ seed_arg
      $ attack_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one consensus instance of a directory protocol.")
    term

(* --- distribute ------------------------------------------------------------ *)

let distribute_cmd =
  let clients_arg =
    Arg.(
      value
      & opt int Torclient.Distribution.default_config.Torclient.Distribution.clients
      & info [ "clients" ] ~docv:"N"
          ~doc:"Client population served by the cache tier (default 1,000,000).")
  in
  let caches_arg =
    Arg.(
      value
      & opt int Torclient.Distribution.default_config.Torclient.Distribution.caches
      & info [ "caches" ] ~docv:"N" ~doc:"Directory-cache nodes (default 16).")
  in
  let halt_arg =
    Arg.(
      value
      & opt float 10800.
      & info [ "halt" ] ~docv:"SECONDS"
          ~doc:
            "How long the directory protocol had been down before this run's \
             consensus appeared (default 10800 = the paper's 3-hour outage; 0 \
             models steady state).")
  in
  let no_diffs_arg =
    Arg.(
      value & flag
      & info [ "no-diffs" ]
          ~doc:"Serve full documents instead of consensus diffs.")
  in
  let action protocol relays bandwidth seed attack clients caches halt no_diffs =
    with_scenario "distribute"
      (flag_directives protocol relays bandwidth seed attack
      @ [
          [ "clients"; string_of_int clients ];
          [ "caches"; string_of_int caches ];
          [ "halt"; Printf.sprintf "%h" halt ];
        ]
      @ if no_diffs then [ [ "diffs"; "off" ] ] else [])
    @@ fun scenario ->
    let report = Torpartial.Scenario.run scenario in
    Printf.printf "protocol:       %s\n" report.R.protocol;
    Printf.printf "relays:         %d\n" relays;
    Printf.printf "consensus:      %s\n"
      (if report.R.success then "produced" else "FAILED");
    match report.R.distribution with
    | Some o ->
        print_distribution o;
        if report.R.success && o.Torclient.Distribution.time_to_full_recovery <> None
        then 0
        else 1
    | None ->
        print_endline "distribution:   (no signed consensus reached the caches)";
        1
  in
  let term =
    Term.(
      const action $ protocol_arg $ relays_arg $ bandwidth_arg $ seed_arg $ attack_arg
      $ clients_arg $ caches_arg $ halt_arg $ no_diffs_arg)
  in
  Cmd.v
    (Cmd.info "distribute"
       ~doc:
         "Simulate one consensus instance plus the downstream distribution \
          tier: directory caches serving a (cohort-modelled) client \
          population, with staggered fetch schedules, exponential-backoff \
          retries, and consensus-diff serving.  Defaults reproduce the \
          paper's million-client flash crowd after a 3-hour halt.  Exit \
          status 0 when the consensus was produced and every client \
          recovered within the horizon.")
    term

(* --- log ------------------------------------------------------------------- *)

let log_cmd =
  let node_arg =
    Arg.(
      value
      & opt int 8
      & info [ "node" ] ~docv:"ID" ~doc:"Authority whose log to print (default 8).")
  in
  let action protocol relays bandwidth seed attack node =
    with_scenario "log" (flag_directives protocol relays bandwidth seed attack)
    @@ fun scenario ->
    let n = scenario.Torpartial.Scenario.spec.R.Spec.n in
    if node < 0 || node >= n then
      usage_error "log" (Printf.sprintf "--node %d is not an authority in [0, %d)" node n)
    else begin
      let report = Torpartial.Scenario.run scenario in
      (* Stream the merged log one record at a time instead of
         materializing the full merged list and a joined string. *)
      Tor_sim.Trace.iter ~node report.R.result.R.trace (fun r ->
          print_endline (Tor_sim.Trace.render r));
      0
    end
  in
  let term =
    Term.(
      const action $ protocol_arg $ relays_arg $ bandwidth_arg $ seed_arg $ attack_arg
      $ node_arg)
  in
  Cmd.v
    (Cmd.info "log" ~doc:"Print one authority's Tor-style log for a simulated run.")
    term

(* --- cost ------------------------------------------------------------------- *)

let cost_cmd =
  let required_arg =
    Arg.(
      value
      & opt float 10.
      & info [ "required" ] ~docv:"MBIT"
          ~doc:"Bandwidth the protocol needs per authority (Figure 7).")
  in
  let action relays required =
    if relays < 0 then usage_error "cost" "--relays must be >= 0"
    else if not (required >= 0.) then usage_error "cost" "--required must be >= 0"
    else
      match Attack.Cost.break_one_run ~required_mbit_per_sec:required () with
      | exception Invalid_argument e -> usage_error "cost" e
      | instance ->
          Format.printf "%a@." (Attack.Cost.pp ~n_relays:relays) instance;
          0
  in
  let term = Term.(const action $ relays_arg $ required_arg) in
  Cmd.v (Cmd.info "cost" ~doc:"Price the DDoS attack for a given network size.") term

(* --- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains executing the sweep: $(b,1) runs sequentially, \
             $(b,0) uses one domain per core.  Results are identical for \
             every setting.")
  in
  let protocols_arg =
    Arg.(
      value
      & opt (list protocol_conv) [ E.Current; E.Synchronous; E.Ours ]
      & info [ "protocols" ] ~docv:"LIST"
          ~doc:"Comma-separated protocols to sweep (default: all three).")
  in
  let bandwidths_arg =
    Arg.(
      value
      & opt (list float) E.default_bandwidths
      & info [ "bandwidths" ] ~docv:"LIST"
          ~doc:"Comma-separated authority bandwidths in Mbit/s.")
  in
  let relays_arg =
    Arg.(
      value
      & opt (list int) E.default_relay_counts
      & info [ "relay-counts" ] ~docv:"LIST"
          ~doc:"Comma-separated relay counts.")
  in
  let sweep_seed_arg =
    Arg.(
      value
      & opt string E.default_seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Simulation seed (default $(b,torpartial), the experiments' seed, \
             whose shared vote populations are cached).")
  in
  let action jobs protocols bandwidths relay_counts seed =
    let base = { R.Spec.default with R.Spec.seed } in
    let cells =
      Exec.Sweep.cells
        (Exec.Sweep.make ~protocols ~bandwidths_mbit:bandwidths ~relay_counts ~base ())
    in
    if jobs < 0 then usage_error "sweep" "--jobs must be >= 0"
    else
      match
        List.iter
          (fun (c : Exec.Sweep.cell) -> R.Spec.validate c.Exec.Sweep.job.Exec.Job.spec)
          cells
      with
      | exception Invalid_argument e -> usage_error "sweep" e
      | () ->
        let jobs = if jobs = 0 then Exec.Pool.default_jobs () else jobs in
        let started = Unix.gettimeofday () in
        let outcomes =
          E.run_jobs ~jobs (List.map (fun c -> c.Exec.Sweep.job) cells)
        in
        let elapsed = Unix.gettimeofday () -. started in
        Printf.printf "%-12s %10s %8s %10s\n" "protocol" "mbit/s" "relays" "latency";
        List.iter2
          (fun (c : Exec.Sweep.cell) (o : Exec.Job.outcome) ->
            Printf.printf "%-12s %10.1f %8d %10s\n"
              (E.protocol_name c.Exec.Sweep.protocol)
              c.Exec.Sweep.bandwidth_mbit c.Exec.Sweep.n_relays
              (match (o.Exec.Job.success, o.Exec.Job.success_latency) with
              | true, Some t -> Printf.sprintf "%.1f s" t
              | true, None | false, _ -> "fail"))
          cells outcomes;
        Printf.eprintf "sweep: %d cells on %d domain(s) in %.1f s\n%!"
          (List.length cells) jobs elapsed;
        0
  in
  let term =
    Term.(
      const action $ jobs_arg $ protocols_arg $ bandwidths_arg $ relays_arg
      $ sweep_seed_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a protocol x bandwidth x relay-count grid (Figure 10 style) on a \
          parallel domain pool.  Cell order and values are independent of \
          $(b,--jobs); timing goes to stderr so stdout is byte-comparable.")
    term

(* --- chaos ----------------------------------------------------------------- *)

let chaos_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains: $(b,1) runs sequentially, $(b,0) uses one domain \
             per core.  Verdicts are identical for every setting.")
  in
  let plans_arg =
    Arg.(
      value
      & opt int Exec.Chaos.default_config.Exec.Chaos.plans
      & info [ "plans" ] ~docv:"N" ~doc:"Number of chaos cases to sample and run.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt string Exec.Chaos.default_config.Exec.Chaos.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed the whole campaign derives from; same seed, same verdicts.")
  in
  let chaos_relays_arg =
    Arg.(
      value
      & opt int Exec.Chaos.default_config.Exec.Chaos.n_relays
      & info [ "r"; "relays" ] ~docv:"N"
          ~doc:"Relays in the synthetic network (default 1000: chaos stresses \
                faults, not payload size).")
  in
  let defense_arg =
    let parse s =
      match Defense.Plan.preset s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown defense %S" s))
    in
    let print ppf p = Defense.Plan.pp ppf p in
    Arg.(
      value
      & opt (conv (parse, print)) Defense.Plan.none
      & info [ "defense" ] ~docv:"KIND"
          ~doc:
            "Defense toolbox applied to every case: $(b,none), $(b,admission) \
             (per-source token buckets at the authority NIC), $(b,rotation) \
             (MPTC-style epoch rotation of the active authority subset), or \
             $(b,both).")
  in
  let action jobs plans seed relays defense =
    let config =
      {
        Exec.Chaos.seed;
        plans;
        n_relays = relays;
        defense = (if Defense.Plan.is_empty defense then None else Some defense);
      }
    in
    if jobs < 0 then usage_error "chaos" "--jobs must be >= 0"
    else if plans < 0 then usage_error "chaos" "--plans must be >= 0"
    else
      match R.Spec.validate (Exec.Chaos.base_spec config) with
      | exception Invalid_argument e -> usage_error "chaos" e
      | () ->
        let jobs = if jobs = 0 then Exec.Pool.default_jobs () else jobs in
        let started = Unix.gettimeofday () in
        let report = Exec.Chaos.check ~config ~run_protocol:E.run ~jobs () in
        let elapsed = Unix.gettimeofday () -. started in
        List.iter
          (fun v -> Format.printf "@[<v>%a@]@." Exec.Chaos.pp_verdict v)
          report.Exec.Chaos.verdicts;
        Printf.printf "chaos: %d plan(s), %d safety violation(s), %d liveness violation(s)\n"
          plans report.Exec.Chaos.safety_violations report.Exec.Chaos.liveness_violations;
        (* Tiny --plans runs can finish inside the clock's resolution;
           reporting a rate from a near-zero denominator is noise, so the
           throughput clause only appears when the run was measurable. *)
        let rate =
          if elapsed >= 0.001 then
            Printf.sprintf " (%.2f plans/s)" (float_of_int plans /. elapsed)
          else ""
        in
        Printf.eprintf "chaos: %d plan(s) on %d domain(s) in %.1f s%s\n%!"
          plans jobs elapsed rate;
        if report.Exec.Chaos.safety_violations > 0 then 1 else 0
  in
  let term =
    Term.(
      const action $ jobs_arg $ plans_arg $ chaos_seed_arg $ chaos_relays_arg
      $ defense_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sample seeded fault plans (loss, partitions, jitter, duplication, \
          crashes), run all three protocols through each, and check the \
          partial-synchrony protocol's safety and liveness invariants.  A \
          failing case is shrunk to a minimal repro and printed with its spec \
          digest; exit status 1 on any safety violation.")
    term

(* --- scenario ------------------------------------------------------------- *)

let scenario_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Scenario file to run (see $(b,--example)).")
  in
  let example_arg =
    Arg.(
      value & flag
      & info [ "example" ] ~doc:"Print an example scenario file and exit.")
  in
  let action file example =
    if example then begin
      print_string Torpartial.Scenario.default_text;
      0
    end
    else
      match file with
      | None -> usage_error "scenario" "FILE required (or --example)"
      | Some path -> (
          let ic = open_in path in
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          close_in ic;
          match Torpartial.Scenario.parse text with
          | Error e -> usage_error "scenario" e
          | Ok scenario ->
              let report = Torpartial.Scenario.run scenario in
              Printf.printf "protocol: %s\n" report.R.protocol;
              Printf.printf "success:  %b\n" report.R.success;
              (match report.R.success_latency with
              | Some t -> Printf.printf "latency:  %.1f s\n" t
              | None -> print_endline "latency:  (no consensus)");
              Option.iter print_distribution report.R.distribution;
              if report.R.success then 0 else 1)
  in
  let term = Term.(const action $ file_arg $ example_arg) in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a simulation described by a scenario file.")
    term

let () =
  let doc = "Tor directory protocol simulator (EUROSYS '26 reproduction)" in
  let info = Cmd.info "torda-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; distribute_cmd; log_cmd; cost_cmd; sweep_cmd; chaos_cmd; scenario_cmd ]))
