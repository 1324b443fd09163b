(* One repetition of one spec→report workload, in a fresh process.

   Usage: perfbench.exe WORKLOAD --seed N [--trace] [--spans FILE]

   The process builds the workload's inputs from the seed, prints
   "ready", runs one operation and prints one JSON line: the operation's
   wall time, the peak major heap, the deterministic outcome the runner
   checks against earlier repetitions and recorded reference values, the
   vote digests of every population, and the failed in-process checks.

   [perfbench/run.py] starts one process per repetition, so every
   repetition is cold: [Experiments]' result and vote caches are
   process-global and cannot be cleared, and a repetition that shared a
   process with an earlier one would time cache hits.

   With [--trace] the operation is decomposed into calls to each layer's
   public functions, each wrapped in a span (name, start, end, parent,
   operation id) recorded here, outside the library; the spans are
   written to FILE as JSON lines at exit.  A traced process also runs
   per-layer probes (standalone aggregation, protocol runs without the
   client tier, a client-tier run) as separate operations. *)

module R = Protocols.Runenv
module E = Torpartial.Experiments
module Job = Exec.Job
module Chaos = Exec.Chaos
module W = Dirdoc.Workload
module Dist = Torclient.Distribution

(* --- JSON output ---------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec write_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Float _ -> Buffer.add_string b "null"
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; write_json b v) l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write_json b (Str k);
          Buffer.add_char b ':';
          write_json b v)
        l;
      Buffer.add_char b '}'

let json_line v =
  let b = Buffer.create 4096 in
  write_json b v;
  Buffer.contents b

let opt_float = function Some f -> Float f | None -> Null

(* --- Spans ---------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (* 0 = top level of its operation *)
  op : int;
  name : string;
  start : float;
  stop : float;
  alloc_mb : float;  (* bytes allocated by this domain inside the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let current_op = ref 0

(* Traced passes run on the main domain only, so plain refs suffice. *)
let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let a0 = Gc.allocated_bytes () and start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        spans :=
          { id; parent; op = !current_op; name; start; stop;
            alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6 }
          :: !spans;
        current := parent)
  end

(* Each operation of a traced process gets its own id; the timed one is 1. *)
let operation f =
  incr current_op;
  f ()

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (json_line
           (Obj
              [ ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op);
                ("name", Str s.name); ("start", Float s.start); ("end", Float s.stop);
                ("alloc_mb", Float s.alloc_mb) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* --- Outputs and checks ----------------------------------------------------- *)

let failures : string list ref = ref []
let check ok what = if not ok then failures := what :: !failures

(* Simulated work of the timed operation, read from each run's stats. *)
let messages = ref 0
let bytes = ref 0
let dropped = ref 0
let rejected = ref 0

let count (r : R.report) =
  let stats = r.R.result.R.stats in
  for node = 0 to Tor_sim.Stats.n stats - 1 do
    messages := !messages + Tor_sim.Stats.messages_sent stats node
  done;
  bytes := !bytes + Tor_sim.Stats.total_bytes_sent stats;
  dropped := !dropped + Tor_sim.Stats.dropped stats;
  rejected := !rejected + Tor_sim.Stats.rejected stats

let short_name = function
  | Job.Current -> "current"
  | Job.Synchronous -> "sync"
  | Job.Ours -> "ours"

let report_json (r : R.report) =
  Obj
    [ ("protocol", Str r.R.protocol); ("success", Bool r.R.success);
      ("agreement", Bool r.R.agreement);
      ("decided_at_latest", opt_float r.R.decided_at_latest);
      ("dropped", Int r.R.dropped); ("rejected", Int r.R.rejected) ]

let vote_digests (votes : Dirdoc.Vote.t array) =
  List
    (Array.to_list
       (Array.map (fun v -> Str (Crypto.Digest32.hex (Dirdoc.Vote.digest v))) votes))

(* --- Layer decompositions (traced passes) ---------------------------------- *)

(* [Workload.votes] as [Runenv.of_spec] calls it, one layer call at a
   time: [of_spec] seeds one RNG from the spec seed, splits the topology
   stream off it, then draws the ground truth and every authority's view
   from what remains.  The runner checks the result digest for digest
   against the votes an untraced [of_spec] builds. *)
let traced_votes (spec : R.Spec.t) =
  let seed = spec.R.Spec.seed and n = spec.R.Spec.n in
  let valid_after = spec.R.Spec.valid_after in
  let keyring = span "crypto.keyring" (fun () -> Crypto.Keyring.create ~seed ~n ()) in
  let rng = Tor_sim.Rng.of_string_seed seed in
  ignore (Tor_sim.Rng.split rng : Tor_sim.Rng.t);
  let divergence = Option.value spec.R.Spec.divergence ~default:W.default_divergence in
  let published = valid_after -. 600. in
  let truth =
    span "workload.relays" (fun () -> W.relays ~rng ~n:spec.R.Spec.n_relays ~published)
  in
  Array.init n (fun authority ->
      let view = span "workload.views" (fun () -> W.authority_view ~rng ~divergence truth) in
      span "vote.create" (fun () ->
          Dirdoc.Vote.create ~authority
            ~authority_fingerprint:(Crypto.Keyring.fingerprint keyring authority)
            ~nickname:(W.authority_nickname authority) ~published ~valid_after ~relays:view))

let aggregate_probe (env : R.t) =
  operation (fun () ->
      span "aggregate.consensus" (fun () ->
          ignore
            (Dirdoc.Aggregate.consensus ~valid_after:env.R.valid_after
               ~votes:(Array.to_list env.R.votes)
              : Dirdoc.Consensus.t)))

(* The client tier's cost on one environment: [Experiments.run] with the
   distribution config minus the same run without it. *)
let client_probe (env : R.t) ~distribution =
  operation (fun () ->
      let bare = { env with R.distribution = None } in
      let without = span "client.baseline" (fun () -> E.run Job.Ours bare) in
      let with_tier =
        span "client.run" (fun () -> E.run Job.Ours { bare with R.distribution = Some distribution })
      in
      check (with_tier.R.distribution <> None) "client probe: no distribution outcome";
      check
        (with_tier.R.decided_at_latest = without.R.decided_at_latest)
        "client probe: the client tier changed the agreement result")

(* --- Workloads -------------------------------------------------------------- *)

type result = { outcome : json; votes : json }

(* distribute-32k: [torda-sim distribute] at the roadmap's target size —
   Ours at 32k relays and 250 Mbit/s, fault-free and undefended, after a
   3-hour halt, 1M clients served consensus diffs. *)
let distribution = { Dist.default_config with Dist.halt = 10_800. }

let distribute_spec seed =
  {
    R.Spec.default with
    R.Spec.seed;
    n_relays = 32_000;
    bandwidth_bits_per_sec = 250e6;
    distribution = Some distribution;
  }

let distribute spec () =
  let env, report =
    if not !tracing then
      let env = R.of_spec spec in
      (env, E.run Job.Ours env)
    else
      span "spec_to_report" (fun () ->
          let votes = traced_votes spec in
          let env = span "runenv.of_spec" (fun () -> R.of_spec ~votes spec) in
          (env, span "experiments.run" (fun () -> E.run Job.Ours env)))
  in
  count report;
  (env, report)

let distribute_result (env, (report : R.report)) =
  let dist =
    match report.R.distribution with
    | None -> Null
    | Some o ->
        Obj
          [ ("t90", opt_float o.Dist.time_to_90pct_fresh);
            ("tfull", opt_float o.Dist.time_to_full_recovery);
            ("bytes_per_cache", Float o.Dist.bytes_per_cache) ]
  in
  (* Invariants of a fault-free, undefended run on any seed. *)
  check report.R.agreement "distribute: honest authorities disagree";
  check report.R.success "distribute: no consensus";
  check (report.R.dropped = 0 && report.R.rejected = 0) "distribute: messages lost";
  check
    (match report.R.distribution with
    | Some o -> o.Dist.time_to_full_recovery <> None
    | None -> false)
    "distribute: clients never fully recovered";
  if !tracing then begin
    aggregate_probe env;
    (* Each protocol's run without the client tier. *)
    operation (fun () ->
        let bare = { env with R.distribution = None } in
        List.iter
          (fun p -> ignore (span ("protocol." ^ short_name p) (fun () -> E.run p bare) : R.report))
          [ Job.Current; Job.Synchronous; Job.Ours ]);
    client_probe env ~distribution
  end;
  {
    outcome = Obj [ ("ours", report_json report); ("distribution", dist) ];
    votes = List [ vote_digests env.R.votes ];
  }

(* chaos-4k: [torda-sim chaos --relays 4000 --jobs 1] — the default
   20-plan campaign of seed "chaos", undefended.  The plan sample is
   fixed rather than drawn from the workload seed: a plan that leaves
   more than f authorities permanently faulty keeps Ours running to the
   horizon, 25-50x its cost on any other plan, so the wall time of a
   seeded sample follows how many such plans it happens to draw. *)
let chaos_config = { Chaos.default_config with Chaos.n_relays = 4000 }

let chaos () =
  let run_protocol p env =
    let r = span ("protocol." ^ short_name p) (fun () -> E.run p env) in
    count r;
    r
  in
  span "chaos.check" (fun () -> Chaos.check ~config:chaos_config ~run_protocol ~jobs:1 ())

let chaos_result (report : Chaos.report) =
  check (report.Chaos.safety_violations = 0) "chaos: safety violated";
  let verdict (v : Chaos.verdict) =
    Obj
      [ ("index", Int v.Chaos.index);
        ("reports",
          List
            (List.map
               (fun (r : Chaos.protocol_report) ->
                 Obj
                   [ ("success", Bool r.Chaos.success); ("agreement", Bool r.Chaos.agreement);
                     ("decided_at_latest", opt_float r.Chaos.decided_at_latest);
                     ("dropped", Int r.Chaos.dropped); ("rejected", Int r.Chaos.rejected) ])
               v.Chaos.reports));
        ("safety_ok", Bool v.Chaos.safety_ok); ("liveness_ok", Bool v.Chaos.liveness_ok);
        ("stalled_phase", match v.Chaos.stalled_phase with Some s -> Str s | None -> Null);
        ("shrunk", Bool (v.Chaos.shrunk <> None)) ]
  in
  let breaks p =
    List.length
      (List.filter
         (fun (v : Chaos.verdict) ->
           List.exists
             (fun (r : Chaos.protocol_report) -> r.Chaos.protocol = p && not r.Chaos.success)
             v.Chaos.reports)
         report.Chaos.verdicts)
  in
  let base = Chaos.base_spec chaos_config in
  let votes =
    if !tracing then begin
      (* The population [Chaos.check] generates internally, rebuilt
         layer by layer, then the per-layer probes on it. *)
      let env =
        operation (fun () ->
            let votes = span "chaos.votes" (fun () -> traced_votes base) in
            span "runenv.of_spec" (fun () -> R.of_spec ~votes base))
      in
      check
        (Array.for_all2 Dirdoc.Vote.equal (R.of_spec base).R.votes env.R.votes)
        "chaos: layer-by-layer votes differ from Runenv.of_spec's";
      aggregate_probe env;
      operation (fun () ->
          span "campaign.map" (fun () ->
              Exec.Campaign.map ~jobs:1 ~votes:env.R.votes ~base
                (fun ctx index ->
                  span "campaign.env_of" (fun () ->
                      ignore
                        (Exec.Campaign.env_of ctx
                           (Exec.Campaign.plan_of_spec (Chaos.sample_spec chaos_config ~index))
                          : R.t)))
                (List.init chaos_config.Chaos.plans Fun.id)
              |> ignore));
      client_probe env ~distribution;
      List [ vote_digests env.R.votes ]
    end
    else Null
  in
  {
    outcome =
      Obj
        [ ("breaks",
            Obj (List.map (fun p -> (short_name p, Int (breaks p))) [ Job.Current; Job.Synchronous; Job.Ours ]));
          ("safety_violations", Int report.Chaos.safety_violations);
          ("liveness_violations", Int report.Chaos.liveness_violations);
          ("verdicts", List (List.map verdict report.Chaos.verdicts)) ];
    votes;
  }

(* fig10-sweep: the Figure 10 grid, 3 protocols x 5 bandwidths x
   1k-10k relays = 150 cells, on a 2-worker pool, caches cold. *)
let fig10_jobs = 2

let fig10_sweep seed =
  Exec.Sweep.make
    ~protocols:[ Job.Current; Job.Synchronous; Job.Ours ]
    ~bandwidths_mbit:E.default_bandwidths ~relay_counts:E.default_relay_counts
    ~base:{ R.Spec.default with R.Spec.seed } ()

(* Untraced: the real pool, job and cache path.  Traced: the same cells
   in order on this domain, with [run_job]'s steps (vote population,
   environment, run) as separate spans; each population is built once
   and the count of builds is reported, so a warm cache would show. *)
let fig10 sweep () =
  let cells = Exec.Sweep.cells sweep in
  if not !tracing then (E.run_jobs ~jobs:fig10_jobs (Exec.Sweep.jobs sweep), [])
  else
    span "sweep.grid" (fun () ->
        let populations = Hashtbl.create 16 in
        let outcomes =
          List.map
            (fun (c : Exec.Sweep.cell) ->
              let spec = c.Exec.Sweep.job.Job.spec in
              let votes =
                match Hashtbl.find_opt populations c.Exec.Sweep.n_relays with
                | Some v -> v
                | None ->
                    let v = span "sweep.votes" (fun () -> traced_votes spec) in
                    Hashtbl.add populations c.Exec.Sweep.n_relays v;
                    v
              in
              let env = span "runenv.of_spec" (fun () -> R.of_spec ~votes spec) in
              let r =
                span ("protocol." ^ short_name c.Exec.Sweep.protocol) (fun () ->
                    E.run c.Exec.Sweep.protocol env)
              in
              count r;
              Job.outcome c.Exec.Sweep.job r)
            cells
        in
        (outcomes, List.map (fun n -> (n, Hashtbl.find populations n)) E.default_relay_counts))

let fig10_result sweep (outcomes, populations) =
  let cells = Exec.Sweep.cells sweep in
  check (List.length outcomes = List.length cells) "fig10: missing cells";
  check
    (List.for_all2 (fun (c : Exec.Sweep.cell) (o : Job.outcome) -> o.Job.key = Job.key c.Exec.Sweep.job) cells outcomes)
    "fig10: outcome keys do not match their cells";
  let populations =
    if !tracing then populations
    else
      (* Read back from the warm vote cache: no new work. *)
      List.map
        (fun n -> (n, E.votes_for_spec { sweep.Exec.Sweep.base with R.Spec.n_relays = n }))
        E.default_relay_counts
  in
  if !tracing then begin
    List.iter
      (fun (n, votes) ->
        aggregate_probe
          (R.of_spec ~votes { sweep.Exec.Sweep.base with R.Spec.n_relays = n }))
      populations;
    let n, votes = List.nth populations (List.length populations - 1) in
    client_probe
      (R.of_spec ~votes
         { sweep.Exec.Sweep.base with
           R.Spec.n_relays = n;
           bandwidth_bits_per_sec = List.hd E.default_bandwidths *. 1e6 })
      ~distribution
  end;
  {
    outcome =
      Obj
        [ ("latencies",
            List
              (List.map
                 (fun (o : Job.outcome) -> if o.Job.success then opt_float o.Job.success_latency else Null)
                 outcomes));
          ("vote_populations", Int (List.length populations)) ];
    votes = List (List.map (fun (_, v) -> vote_digests v) populations);
  }

(* --- Main --------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (distribute-32k|chaos-4k|fig10-sweep) --seed N [--trace] [--spans FILE]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload, seed, spans_file =
    let rec parse (w, s, f) = function
      | [] -> (w, s, f)
      | "--seed" :: n :: rest -> parse (w, int_of_string_opt n, f) rest
      | "--trace" :: rest ->
          tracing := true;
          parse (w, s, f) rest
      | "--spans" :: path :: rest -> parse (w, s, Some path) rest
      | name :: rest when w = None -> parse (Some name, s, f) rest
      | _ -> usage ()
    in
    match parse (None, None, None) args with
    | Some w, Some s, f -> (w, Printf.sprintf "perfbench-%d" s, f)
    | _ -> usage ()
  in
  (* Set-up: build the inputs, then signal readiness. *)
  let run : unit -> float * (unit -> result) =
    let timed op finish () =
      let t0 = Unix.gettimeofday () in
      let v = operation op in
      let dt = Unix.gettimeofday () -. t0 in
      (dt, fun () -> finish v)
    in
    match workload with
    | "distribute-32k" -> timed (distribute (distribute_spec seed)) distribute_result
    | "chaos-4k" -> timed chaos chaos_result
    | "fig10-sweep" ->
        let sweep = fig10_sweep seed in
        timed (fig10 sweep) (fig10_result sweep)
    | _ -> usage ()
  in
  print_endline "ready";
  let op_s, finish = run () in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let { outcome; votes } =
    try finish () with e ->
      check false ("exception: " ^ Printexc.to_string e);
      { outcome = Null; votes = Null }
  in
  Option.iter write_spans spans_file;
  print_endline
    (json_line
       (Obj
          [ ("op_s", Float op_s); ("peak_heap_mb", Float peak_heap_mb);
            ("ocaml", Str Sys.ocaml_version); ("outcome", outcome); ("votes", votes);
            ("sim", Obj [ ("messages", Int !messages); ("bytes", Int !bytes);
                          ("dropped", Int !dropped); ("rejected", Int !rejected) ]);
            ("failures", List (List.rev_map (fun s -> Str s) !failures)) ]))
