module Runenv = Protocols.Runenv
module Fault = Tor_sim.Fault
module Rng = Tor_sim.Rng

type config = {
  seed : string;
  plans : int;
  n_relays : int;
  defense : Defense.Plan.t option;
}

let default_config = { seed = "chaos"; plans = 20; n_relays = 1000; defense = None }

(* Every case runs [Runenv.Spec.default]'s authorities, bandwidth and
   horizon. *)
let n = Runenv.Spec.default.n
let horizon = Runenv.Spec.default.horizon

(* A majority must decide within this many seconds of the last fault
   clearing. *)
let liveness_bound = 900.

let base_spec config =
  {
    Runenv.Spec.default with
    Runenv.Spec.seed = config.seed;
    n_relays = config.n_relays;
    defense = config.defense;
  }

(* Sampling ----------------------------------------------------------- *)

(* Every fault and crash window must clear well before the horizon,
   otherwise the liveness invariant ("decide within [liveness_bound] of
   the last fault clearing") would be vacuous for most cases. *)
let clear_by = Float.min (horizon /. 2.) 1800.

let sample_window rng =
  let start = Rng.float rng (clear_by /. 2.) in
  let stop = start +. 15. +. Rng.float rng ((clear_by /. 2.) -. 15.) in
  (start, stop)

let sample_endpoint rng =
  if Rng.int rng 3 = 0 then Fault.any else Rng.int rng n

let sample_fault rng =
  let start, stop = sample_window rng in
  let kind =
    match Rng.int rng 5 with
    | 0 ->
        Fault.Drop
          {
            src = sample_endpoint rng;
            dst = sample_endpoint rng;
            prob = 0.25 +. Rng.float rng 0.75;
          }
    | 1 -> Fault.Partition { a = Rng.int rng n; b = Rng.int rng n }
    | 2 ->
        Fault.Delay
          {
            src = sample_endpoint rng;
            dst = sample_endpoint rng;
            max_extra = 1. +. Rng.float rng 30.;
          }
    | 3 ->
        Fault.Duplicate
          {
            src = sample_endpoint rng;
            dst = sample_endpoint rng;
            prob = 0.25 +. Rng.float rng 0.75;
          }
    | _ -> Fault.Crash { node = Rng.int rng n }
  in
  { Fault.kind; start; stop }

let sample_case config ~index =
  let rng = Rng.of_string_seed (config.seed ^ "/plan-" ^ string_of_int index) in
  let n_faults = 1 + Rng.int rng 5 in
  let faults = List.init n_faults (fun _ -> sample_fault rng) in
  let plan = { Fault.seed = "plan-" ^ string_of_int index; faults } in
  let behaviors = Array.make n Runenv.Honest in
  let n_misbehave = Rng.int rng (Protocols.Agreement.fault_bound ~n + 2) in
  for _ = 1 to n_misbehave do
    let node = Rng.int rng n in
    behaviors.(node) <-
      (match Rng.int rng 3 with
      | 0 -> Runenv.Silent
      | 1 -> Runenv.Equivocating
      | _ ->
          let start, stop = sample_window rng in
          Runenv.Crashed { start; stop })
  done;
  (plan, behaviors)

let spec_of_case config ~plan ~behaviors =
  let non_honest = Array.exists (fun b -> b <> Runenv.Honest) behaviors in
  {
    (base_spec config) with
    Runenv.Spec.behaviors = (if non_honest then Some (Array.copy behaviors) else None);
    fault_plan = (if plan.Fault.faults = [] then None else Some plan);
  }

let sample_spec config ~index =
  let plan, behaviors = sample_case config ~index in
  spec_of_case config ~plan ~behaviors

(* Invariant scoping --------------------------------------------------- *)

(* Distinct nodes that are misbehaving or crash-faulted: the count the
   safety invariant compares against the BFT bound.  Crash-recovery
   nodes are counted conservatively — quorum-intersection arguments
   budget them against f even though they are not Byzantine. *)
let faulty_node_sets ~plan ~behaviors =
  let faulty = Hashtbl.create 8 and permanent = Hashtbl.create 8 in
  Array.iteri
    (fun i b ->
      match b with
      | Runenv.Honest -> ()
      | Runenv.Crashed _ -> Hashtbl.replace faulty i ()
      | Runenv.Silent | Runenv.Equivocating ->
          Hashtbl.replace faulty i ();
          Hashtbl.replace permanent i ())
    behaviors;
  List.iter (fun node -> Hashtbl.replace faulty node ()) (Fault.crash_nodes plan);
  (Hashtbl.length faulty, Hashtbl.length permanent)

let case_clears_at ~plan ~behaviors =
  Array.fold_left
    (fun acc b ->
      match b with
      | Runenv.Crashed { stop; _ } -> Float.max acc stop
      | Runenv.Honest | Runenv.Silent | Runenv.Equivocating -> acc)
    (Fault.clears_at plan) behaviors

(* Execution ----------------------------------------------------------- *)

type protocol_report = {
  protocol : Job.protocol;
  success : bool;
  agreement : bool;
  decided_at_latest : float option;
  dropped : int;
  rejected : int; (* defense turn-aways; never counted in [dropped] *)
}

type verdict = {
  index : int;
  spec_digest : string;
  plan : Fault.plan;
  behaviors : Runenv.behavior array option;
  node_faults : int;
  permanent_faults : int;
  faults_clear_at : float;
  reports : protocol_report list;
  safety_applicable : bool;
  safety_ok : bool;
  liveness_applicable : bool;
  liveness_ok : bool;
  stalled_phase : string option;
  shrunk : Runenv.Spec.t option;
}

type report = {
  config : config;
  verdicts : verdict list;
  safety_violations : int;
  liveness_violations : int;
}

let report_of protocol (r : Runenv.report) =
  {
    protocol;
    success = r.Runenv.success;
    agreement = r.Runenv.agreement;
    decided_at_latest = r.Runenv.decided_at_latest;
    dropped = r.Runenv.dropped;
    rejected = r.Runenv.rejected;
  }

(* Safety and liveness of one (plan, behaviors) case, judged from a run
   of the partial-synchrony protocol alone.  Shared by the main verdict
   and by every shrink step. *)
let judge ~plan ~behaviors ours =
  let f = Protocols.Agreement.fault_bound ~n in
  let node_faults, permanent_faults = faulty_node_sets ~plan ~behaviors in
  let clears = case_clears_at ~plan ~behaviors in
  let safety_applicable = node_faults <= f in
  let safety_ok = (not safety_applicable) || ours.agreement in
  let liveness_applicable =
    permanent_faults <= f && clears +. liveness_bound <= horizon
  in
  let liveness_ok =
    (not liveness_applicable)
    || ours.success
       &&
       match ours.decided_at_latest with
       | Some d -> d <= clears +. liveness_bound
       | None -> false
  in
  ( node_faults,
    permanent_faults,
    clears,
    safety_applicable,
    safety_ok,
    liveness_applicable,
    liveness_ok )

(* The campaign-variable projection of a chaos case: chaos never sets
   attacks, so a case is entirely (behaviors, fault_plan). *)
let campaign_plan config ~plan ~behaviors =
  Campaign.plan_of_spec (spec_of_case config ~plan ~behaviors)

let case_fails config ~ctx ~run_protocol ~plan ~behaviors =
  let env = Campaign.env_of ctx (campaign_plan config ~plan ~behaviors) in
  let ours = report_of Job.Ours (run_protocol Job.Ours env) in
  let _, _, _, _, safety_ok, _, liveness_ok = judge ~plan ~behaviors ours in
  not (safety_ok && liveness_ok)

(* Greedy shrink: while the failure still reproduces, drop one plan
   fault or revert one misbehaving node to honest per step.  Each probe
   is a full deterministic re-run, so the result is a genuinely minimal
   (for this reduction order) failing spec. *)
let shrink config ~ctx ~run_protocol ~plan ~behaviors =
  let candidates (plan, behaviors) =
    let without_fault =
      List.mapi
        (fun i _ ->
          ( { plan with Fault.faults = List.filteri (fun j _ -> j <> i) plan.Fault.faults },
            behaviors ))
        plan.Fault.faults
    in
    let honest_node =
      List.filter_map
        (fun i ->
          if behaviors.(i) = Runenv.Honest then None
          else begin
            let b = Array.copy behaviors in
            b.(i) <- Runenv.Honest;
            Some (plan, b)
          end)
        (List.init (Array.length behaviors) Fun.id)
    in
    without_fault @ honest_node
  in
  let rec go case =
    match
      List.find_opt
        (fun (plan, behaviors) -> case_fails config ~ctx ~run_protocol ~plan ~behaviors)
        (candidates case)
    with
    | Some smaller -> go smaller
    | None -> case
  in
  let plan, behaviors = go (plan, behaviors) in
  spec_of_case config ~plan ~behaviors

let verdict_of_case config ~ctx ~run_protocol ~index =
  let plan, behaviors = sample_case config ~index in
  let cplan = campaign_plan config ~plan ~behaviors in
  let run p =
    let env = Campaign.env_of ctx cplan in
    (env, run_protocol p env)
  in
  let baselines =
    List.map (fun p -> report_of p (snd (run p))) [ Job.Current; Job.Synchronous ]
  in
  let ours_env, ours_run = run Job.Ours in
  let ours = report_of Job.Ours ours_run in
  let ( node_faults,
        permanent_faults,
        faults_clear_at,
        safety_applicable,
        safety_ok,
        liveness_applicable,
        liveness_ok ) =
    judge ~plan ~behaviors ours
  in
  (* Diagnose a liveness failure: which phase the stuck authorities
     were inside.  When every correct authority decided — just after
     the bound — there is no incomplete span to blame. *)
  let stalled_phase =
    if liveness_ok then None
    else Some (Option.value (Runenv.stalled_phase ours_env ours_run) ~default:"decided-late")
  in
  let shrunk =
    if safety_ok && liveness_ok then None
    else Some (shrink config ~ctx ~run_protocol ~plan ~behaviors)
  in
  {
    index;
    spec_digest = Campaign.digest ctx cplan;
    plan;
    behaviors = cplan.Campaign.behaviors;
    node_faults;
    permanent_faults;
    faults_clear_at;
    reports = baselines @ [ ours ];
    safety_applicable;
    safety_ok;
    liveness_applicable;
    liveness_ok;
    stalled_phase;
    shrunk;
  }

let check ?(config = default_config) ~run_protocol ~jobs () =
  if config.plans < 0 then invalid_arg "Chaos.check: negative plan count";
  (* The vote population depends only on (seed, n, n_relays,
     valid_after, divergence) — identical across cases — so the one
     shared campaign context builds it once for every worker. *)
  let verdicts =
    Campaign.map ~jobs ~base:(base_spec config)
      (fun ctx index -> verdict_of_case config ~ctx ~run_protocol ~index)
      (List.init config.plans Fun.id)
  in
  let count p = List.length (List.filter p verdicts) in
  {
    config;
    verdicts;
    safety_violations = count (fun v -> not v.safety_ok);
    liveness_violations = count (fun v -> not v.liveness_ok);
  }

(* Rendering ----------------------------------------------------------- *)

let behavior_to_string = function
  | Runenv.Honest -> "honest"
  | Runenv.Silent -> "silent"
  | Runenv.Equivocating -> "equivocating"
  | Runenv.Crashed { start; stop } -> Printf.sprintf "crashed:%g:%g" start stop

let pp_behaviors ppf = function
  | None -> Format.pp_print_string ppf "all-honest"
  | Some behaviors ->
      let cells =
        Array.to_list behaviors
        |> List.mapi (fun i b -> (i, b))
        |> List.filter (fun (_, b) -> b <> Runenv.Honest)
        |> List.map (fun (i, b) -> Printf.sprintf "%d:%s" i (behavior_to_string b))
      in
      Format.pp_print_string ppf (String.concat " " cells)

let status ~applicable ~ok =
  if not applicable then "n/a" else if ok then "ok" else "VIOLATED"

let pp_verdict ppf v =
  let by_protocol p = List.find (fun r -> r.protocol = p) v.reports in
  let mark r = if r.success then "ok" else "fail" in
  Format.fprintf ppf
    "plan %03d %s  faults=%d nodes=%d  current:%s sync:%s ours:%s  safety:%s liveness:%s"
    v.index
    (String.sub v.spec_digest 0 12)
    (List.length v.plan.Fault.faults)
    v.node_faults
    (mark (by_protocol Job.Current))
    (mark (by_protocol Job.Synchronous))
    (mark (by_protocol Job.Ours))
    (status ~applicable:v.safety_applicable ~ok:v.safety_ok)
    (status ~applicable:v.liveness_applicable ~ok:v.liveness_ok);
  (* Defense rejects, kept apart from fault drops; printed only when a
     defense actually turned traffic away, so undefended output is
     byte-identical to the pre-defense harness. *)
  let total_rejected = List.fold_left (fun acc r -> acc + r.rejected) 0 v.reports in
  if total_rejected > 0 then
    Format.fprintf ppf "  rejected:%s"
      (String.concat "/"
         (List.map
            (fun p -> string_of_int (by_protocol p).rejected)
            [ Job.Current; Job.Synchronous; Job.Ours ]));
  (match v.stalled_phase with
  | None -> ()
  | Some phase -> Format.fprintf ppf "@,  stalled in: %s" phase);
  match v.shrunk with
  | None -> ()
  | Some spec ->
      Format.fprintf ppf "@,  shrunk digest: %s" (Runenv.Spec.digest spec);
      (match spec.Runenv.Spec.fault_plan with
      | Some plan when plan.Fault.faults <> [] ->
          Format.fprintf ppf "@,  shrunk plan: %a" Fault.pp plan
      | _ -> Format.fprintf ppf "@,  shrunk plan: (none)");
      Format.fprintf ppf "@,  shrunk behaviors: %a" pp_behaviors spec.Runenv.Spec.behaviors
