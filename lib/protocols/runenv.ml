module Sim = Tor_sim

type attack = {
  node : int;
  start : Sim.Simtime.t;
  stop : Sim.Simtime.t;
  bits_per_sec : float;
}

type behavior =
  | Honest
  | Silent
  | Equivocating
  | Crashed of { start : Sim.Simtime.t; stop : Sim.Simtime.t }

type t = {
  n : int;
  keyring : Crypto.Keyring.t;
  topology : Sim.Topology.t;
  votes : Dirdoc.Vote.t array;
  valid_after : float;
  bandwidth_bits_per_sec : float;
  attacks : attack list;
  behaviors : behavior array;
  fault_plan : Sim.Fault.plan option;
  defense : Defense.Plan.t option;
  distribution : Torclient.Distribution.config option;
  horizon : Sim.Simtime.t;
  telemetry : bool;
      (* record histograms and probes; NOT part of Spec (see mli) *)
}

let participates = function
  | Honest | Equivocating | Crashed _ -> true
  | Silent -> false

let default_valid_after =
  match Dirdoc.Timefmt.of_string "2026-01-01 01:00:00" with
  | Ok t -> t
  | Error _ -> assert false

module Spec = struct
  type runenv_attack = attack

  type t = {
    seed : string;
    valid_after : float;
    n : int;
    n_relays : int;
    bandwidth_bits_per_sec : float;
    attacks : runenv_attack list;
    behaviors : behavior array option;
    divergence : Dirdoc.Workload.divergence option;
    fault_plan : Sim.Fault.plan option;
    defense : Defense.Plan.t option;
    distribution : Torclient.Distribution.config option;
    horizon : Sim.Simtime.t;
  }

  let default =
    {
      seed = "torpartial";
      valid_after = default_valid_after;
      n = 9;
      n_relays = 1000;
      bandwidth_bits_per_sec = 250e6;
      attacks = [];
      behaviors = None;
      divergence = None;
      fault_plan = None;
      defense = None;
      distribution = None;
      horizon = 7200.;
    }

  (* Canonical serialization for job keying.  Floats are printed with
     %h (hex, lossless) so equal specs always serialize identically
     and nothing depends on printf rounding. *)
  let add_f buf x = Buffer.add_string buf (Printf.sprintf "%h;" x)

  let add_s buf x =
    Buffer.add_string buf (string_of_int (String.length x));
    Buffer.add_char buf ':';
    Buffer.add_string buf x;
    Buffer.add_char buf ';'

  let add_i buf x = Buffer.add_string buf (Printf.sprintf "%d;" x)

  let add_attacks buf attacks =
    add_i buf (List.length attacks);
    List.iter
      (fun a ->
        add_i buf a.node;
        add_f buf a.start;
        add_f buf a.stop;
        add_f buf a.bits_per_sec)
      attacks

  let add_behaviors buf behaviors =
    match behaviors with
    | None -> Buffer.add_string buf "default;"
    | Some b ->
        Array.iter
          (fun v ->
            match v with
            | Honest -> Buffer.add_char buf 'h'
            | Silent -> Buffer.add_char buf 's'
            | Equivocating -> Buffer.add_char buf 'e'
            | Crashed { start; stop } ->
                Buffer.add_char buf 'c';
                add_f buf start;
                add_f buf stop)
          b;
        Buffer.add_char buf ';'

  let canonical t =
    let buf = Buffer.create 256 in
    add_s buf t.seed;
    add_f buf t.valid_after;
    add_i buf t.n;
    add_i buf t.n_relays;
    add_f buf t.bandwidth_bits_per_sec;
    add_attacks buf t.attacks;
    add_behaviors buf t.behaviors;
    (match t.divergence with
    | None -> Buffer.add_string buf "default;"
    | Some d ->
        add_f buf d.Dirdoc.Workload.missing_prob;
        add_f buf d.Dirdoc.Workload.bw_jitter;
        add_f buf d.Dirdoc.Workload.flag_flip_prob;
        add_f buf d.Dirdoc.Workload.unmeasured_prob);
    (match t.fault_plan with
    | None -> Buffer.add_string buf "default;"
    | Some plan -> add_s buf (Sim.Fault.canonical plan));
    (match t.distribution with
    | None -> Buffer.add_string buf "default;"
    | Some d -> add_s buf (Torclient.Distribution.canonical_config d));
    add_f buf t.horizon;
    (* The defense sub-record joined the spec in the defense-toolbox
       change; it is encoded unconditionally — [None] included — so
       every digest moved once, by design, and a defense-carrying spec
       can never collide with a defense-less one. *)
    (match t.defense with
    | None -> Buffer.add_string buf "default;"
    | Some p -> add_s buf (Defense.Plan.canonical p));
    Buffer.contents buf

  let digest t = Crypto.Digest32.hex (Crypto.Digest32.of_string (canonical t))

  (* One week, the bound on a distribution halt too.  A run that never
     decides keeps its timers firing until the horizon, so its cost
     grows linearly with it. *)
  let max_horizon = 604_800.

  (* Every check runs before anything is built, so a malformed spec is
     rejected before it costs a vote population.  The comparisons are
     written so that NaN fails them — [not (start <= stop)],
     [not (rate >= 0.)] — while an infinite bandwidth stays legal. *)
  let validate (spec : t) =
    let fail msg = invalid_arg ("Runenv.of_spec: " ^ msg) in
    let n = spec.n in
    if spec.n_relays < 0 then fail "negative relay count";
    if not (spec.bandwidth_bits_per_sec >= 0.) then
      fail "bandwidth must be a non-negative number";
    if not (Float.is_finite spec.horizon && spec.horizon >= 0.) then
      fail "horizon must be finite and non-negative";
    if spec.horizon > max_horizon then
      fail (Printf.sprintf "horizon must be at most %.0f s" max_horizon);
    Option.iter
      (fun b ->
        if Array.length b <> n then fail "behaviors length mismatch";
        Array.iter
          (function
            | Crashed { start; stop } when not (start <= stop) ->
                fail "crash window stops before it starts"
            | _ -> ())
          b)
      spec.behaviors;
    List.iter
      (fun a ->
        if a.node < 0 || a.node >= n then fail "attack node out of range";
        if not (a.start <= a.stop) then fail "attack stops before it starts";
        if not (a.bits_per_sec >= 0.) then
          fail "residual bandwidth must be a non-negative number")
      spec.attacks;
    (* A NIC takes one node's windows in start order, so they must not
       overlap; touching windows are fine. *)
    let rec disjoint = function
      | [] -> ()
      | a :: rest ->
          if List.exists (fun b -> b.node = a.node && a.start < b.stop && b.start < a.stop) rest
          then fail (Printf.sprintf "attack windows overlap on node %d" a.node);
          disjoint rest
    in
    disjoint spec.attacks;
    Option.iter (Sim.Fault.validate ~n) spec.fault_plan;
    Option.iter (Defense.Plan.validate ~n) spec.defense;
    Option.iter Torclient.Distribution.validate_config spec.distribution
end

let of_spec ?votes (spec : Spec.t) =
  Spec.validate spec;
  let { Spec.seed; valid_after; n; n_relays; bandwidth_bits_per_sec; attacks;
        behaviors; divergence; fault_plan; defense; distribution; horizon } =
    spec
  in
  let keyring = Crypto.Keyring.create ~seed ~n () in
  let rng = Sim.Rng.of_string_seed seed in
  let topology = Sim.Topology.realistic ~n ~rng:(Sim.Rng.split rng) in
  let votes =
    match votes with
    | Some v ->
        if Array.length v <> n then invalid_arg "Runenv.of_spec: votes length mismatch";
        v
    | None ->
        Dirdoc.Workload.votes ~rng ?divergence ~keyring ~n_authorities:n ~n_relays
          ~valid_after ()
  in
  {
    n;
    keyring;
    topology;
    votes;
    valid_after;
    bandwidth_bits_per_sec;
    attacks;
    behaviors = Option.value behaviors ~default:(Array.make n Honest);
    fault_plan;
    defense;
    distribution;
    horizon;
    telemetry = false;
  }

type authority_result = {
  consensus : Dirdoc.Consensus.t option;
  signatures : int;
  decided_at : Sim.Simtime.t option;
  network_time : Sim.Simtime.t option;
}

(* Telemetry bundle of one run; [None] unless [env.telemetry]. *)
type obs = {
  metrics : Obs.Metrics.t;
      (* "time-to-decision" + "delivery-latency/<label>" histograms *)
  samples : Obs.Events.sample list;
}

type run_result = {
  protocol : string;
  per_authority : authority_result array;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  spans : Obs.Events.span list;
  obs : obs option;
}

(* Histograms and probes, on only when [env.telemetry] is set: off, a
   run schedules no probe and records no latency. *)
module Telemetry = struct
  let probe_interval = 5.

  let start (env : t) ~net ~stop =
    if not env.telemetry then None
    else begin
      Sim.Net.enable_obs net;
      let events = Obs.Events.create () in
      Sim.Net.install_probes net ~events ~interval:probe_interval ~stop;
      Some events
    end

  (* Fold the decision times into a histogram next to the net's
     delivery latencies. *)
  let finish events ~net ~per_authority =
    Option.map
      (fun events ->
        let metrics = Sim.Net.obs_metrics net in
        let h = Obs.Metrics.histogram metrics "time-to-decision" in
        Array.iter
          (fun (a : authority_result) ->
            match a.decided_at with
            | Some d -> Obs.Metrics.observe h d
            | None -> ())
          per_authority;
        { metrics; samples = Obs.Events.samples events })
      events
end

let majority ~n = (n / 2) + 1

let majority_signed ~n result =
  let need = majority ~n in
  Array.find_map
    (fun (r : authority_result) ->
      match r.consensus with
      | Some c when r.signatures >= need -> Some c
      | _ -> None)
    result.per_authority

(* Crash faults are benign: a crashed-and-recovered authority is held
   to the same agreement obligations as an always-up honest one. *)
let correct_behavior = function
  | Honest | Crashed _ -> true
  | Silent | Equivocating -> false

let honest_results env result =
  List.filter_map
    (fun i ->
      if correct_behavior env.behaviors.(i) then Some result.per_authority.(i)
      else None)
    (List.init env.n Fun.id)

let success env result =
  let need = majority ~n:env.n in
  let decided =
    List.filter_map
      (fun (r : authority_result) ->
        match r.consensus with
        | Some c when r.signatures >= need -> Some (Dirdoc.Consensus.digest c)
        | _ -> None)
      (honest_results env result)
  in
  match decided with
  | [] -> false
  | first :: _ ->
      List.length decided >= need
      && List.for_all (Crypto.Digest32.equal first) decided

let agreement_holds env result =
  let digests =
    List.filter_map
      (fun (r : authority_result) -> Option.map Dirdoc.Consensus.digest r.consensus)
      (honest_results env result)
  in
  match digests with
  | [] -> true
  | first :: rest -> List.for_all (Crypto.Digest32.equal first) rest

let fold_max_over f result =
  Array.fold_left
    (fun acc r ->
      match f r with
      | None -> acc
      | Some t -> Some (match acc with None -> t | Some a -> Float.max a t))
    None result.per_authority

let success_latency result = fold_max_over (fun r -> r.network_time) result
let decided_at_latest result = fold_max_over (fun r -> r.decided_at) result

type report = {
  protocol : string;
  result : run_result;
  success : bool;
  agreement : bool;
  success_latency : Sim.Simtime.t option;
  decided_at_latest : Sim.Simtime.t option;
  total_bytes : int;
  dropped : int;
  rejected : int;
  distribution : Torclient.Distribution.outcome option;
}

let report env ?distribution (result : run_result) =
  {
    protocol = result.protocol;
    result;
    success = success env result;
    agreement = agreement_holds env result;
    success_latency = success_latency result;
    decided_at_latest = decided_at_latest result;
    total_bytes = Sim.Stats.total_bytes_sent result.stats;
    dropped = Sim.Stats.dropped result.stats;
    rejected = Sim.Stats.rejected result.stats;
    distribution;
  }

let report_obs r = r.result.obs

let time_to_decision r =
  Option.bind r.result.obs (fun o ->
      Obs.Metrics.find_histogram o.metrics "time-to-decision")

let delivery_latency r label =
  Option.bind r.result.obs (fun o ->
      Obs.Metrics.find_histogram o.metrics ("delivery-latency/" ^ label))

(* Which phase a failing run is stuck in: among correct authorities
   that never decided, take each one's latest-begun incomplete span and
   return the most common phase (count ties break to the
   alphabetically-first name, so the answer is deterministic). *)
let stalled_phase env r =
  let latest = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Events.span) ->
      if
        (not s.Obs.Events.complete)
        && s.node >= 0 && s.node < env.n
        && correct_behavior env.behaviors.(s.node)
        && r.result.per_authority.(s.node).decided_at = None
      then
        let better =
          match Hashtbl.find_opt latest s.node with
          | None -> true
          | Some (st, ph) ->
              s.start > st
              || (s.start = st && String.compare s.phase ph > 0)
        in
        if better then Hashtbl.replace latest s.node (s.start, s.phase))
    r.result.spans;
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (_, ph) ->
      Hashtbl.replace counts ph
        (1 + Option.value (Hashtbl.find_opt counts ph) ~default:0))
    latest;
  Hashtbl.fold
    (fun ph c best ->
      match best with
      | Some (bc, bp) when c < bc || (c = bc && String.compare bp ph <= 0)
        ->
          best
      | _ -> Some (c, ph))
    counts None
  |> Option.map snd
