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

(* A bag of reusable simulator instances, one slot per driver name.
   The slot payload is an extensible variant because each driver's
   network is monomorphic in its own message type; the driver that
   stashed a slot is the only one that can match it back out. *)
module Arena = struct
  type slot = ..
  type t = { mutable slots : (string * slot) list }

  let create () = { slots = [] }
  let find t driver = List.assoc_opt driver t.slots

  let set t driver slot =
    t.slots <- (driver, slot) :: List.remove_assoc driver t.slots
end

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
      (* record spans/histograms; NOT part of Spec (see mli) *)
  arena : Arena.t option;
      (* reusable simulator instances; NOT part of Spec (see mli) *)
  rotation : Defense.Rotation.t option;
      (* rotation membership cache derived from [defense] *)
}

(* MPTC-style rotation: a rotated-out authority sits the epoch out —
   drivers treat it like a node that is not serving, exactly as they
   treat a crash window. *)
let rotated_out t id ~now =
  match t.rotation with
  | None -> false
  | Some r -> Defense.Rotation.quiet r ~node:id ~now

let awake t id ~now =
  (match t.behaviors.(id) with
  | Honest | Equivocating -> true
  | Silent -> false
  | Crashed { start; stop } -> not (now >= start && now < stop))
  && not (rotated_out t id ~now)

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
end

(* Validation of the campaign-variable fields, shared between
   [of_spec] and [vary] so a plan streamed through an arena is held to
   exactly the checks a cold [of_spec] would apply. *)
let checked_behaviors ~who ~n behaviors =
  match behaviors with
  | Some b ->
      if Array.length b <> n then
        invalid_arg (who ^ ": behaviors length mismatch");
      Array.iter
        (function
          | Crashed { start; stop } when stop < start ->
              invalid_arg (who ^ ": crash window stops before it starts")
          | _ -> ())
        b;
      b
  | None -> Array.make n Honest

let check_variation ~who ~n ~attacks ~fault_plan =
  Option.iter (fun plan -> Sim.Fault.validate ~n plan) fault_plan;
  List.iter
    (fun a ->
      if a.node < 0 || a.node >= n then
        invalid_arg (who ^ ": attack node out of range");
      if a.stop < a.start then invalid_arg (who ^ ": attack stops before it starts");
      if a.bits_per_sec < 0. then invalid_arg (who ^ ": negative residual bandwidth"))
    attacks

let of_spec ?votes (spec : Spec.t) =
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
  let behaviors = checked_behaviors ~who:"Runenv.of_spec" ~n behaviors in
  check_variation ~who:"Runenv.of_spec" ~n ~attacks ~fault_plan;
  Option.iter (Defense.Plan.validate ~n) defense;
  Option.iter Torclient.Distribution.validate_config distribution;
  {
    n;
    keyring;
    topology;
    votes;
    valid_after;
    bandwidth_bits_per_sec;
    attacks;
    behaviors;
    fault_plan;
    defense;
    distribution;
    horizon;
    telemetry = false;
    arena = None;
    rotation =
      Option.bind defense (fun p ->
          Option.map
            (fun c -> Defense.Rotation.instantiate c ~n)
            p.Defense.Plan.rotation);
  }

let vary env ~attacks ~behaviors ~fault_plan =
  let behaviors = checked_behaviors ~who:"Runenv.vary" ~n:env.n behaviors in
  check_variation ~who:"Runenv.vary" ~n:env.n ~attacks ~fault_plan;
  { env with attacks; behaviors; fault_plan }

(* Engine+network acquisition shared by the protocol drivers: build a
   fresh simulator, or — when the environment carries an arena — reuse
   the one stashed under the driver's name, reset on acquisition.
   Resetting on the way in (not the way out) means an arena left dirty
   by an exception self-heals on the next use.  A slot is only reused
   when everything baked into engine/net construction matches:
   dimension, the identical topology (campaign runs share one base
   environment, so physical equality is the campaign invariant) and
   base bandwidth; anything else rebuilds and replaces the slot. *)
module Simulator (M : sig
  type msg
end) =
struct
  type state = {
    engine : Sim.Engine.t;
    net : M.msg Sim.Net.t;
    s_n : int;
    s_topology : Sim.Topology.t;
    s_bits : float;
  }

  type Arena.slot += Slot of state

  let build env =
    let engine = Sim.Engine.create ~nodes:env.n () in
    let net =
      Sim.Net.create ~engine ~topology:env.topology
        ~bits_per_sec:env.bandwidth_bits_per_sec ()
    in
    { engine; net; s_n = env.n; s_topology = env.topology;
      s_bits = env.bandwidth_bits_per_sec }

  let obtain ~driver env =
    match env.arena with
    | None ->
        let s = build env in
        (s.engine, s.net)
    | Some arena -> (
        match Arena.find arena driver with
        | Some (Slot s)
          when s.s_n = env.n
               && s.s_topology == env.topology
               && s.s_bits = env.bandwidth_bits_per_sec ->
            Sim.Engine.reset s.engine;
            Sim.Net.reset s.net;
            (s.engine, s.net)
        | _ ->
            let s = build env in
            Arena.set arena driver (Slot s);
            (s.engine, s.net))
end

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
  spans : Obs.Events.span list;
  samples : Obs.Events.sample list;
}

type run_result = {
  protocol : string;
  per_authority : authority_result array;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  obs : obs option;
}

(* Driver-facing telemetry context.  Every emission helper takes the
   [ctx option] itself and is a no-op on [None], so an instrumented
   driver pays one option test per phase transition when telemetry is
   off — nothing per message or per event. *)
module Telemetry = struct
  type ctx = {
    tl_events : Obs.Events.t;
    tl_engine : Sim.Engine.t;
    (* Open (phase, start) pairs per node, for begin/end instrumented
       drivers. *)
    tl_opens : (string * Sim.Simtime.t) list array;
  }

  let probe_interval = 5.

  let start (env : t) ~engine ~net ~stop =
    if not env.telemetry then None
    else begin
      Sim.Net.enable_obs net;
      let events = Obs.Events.create () in
      Sim.Net.install_probes net ~events ~interval:probe_interval ~stop;
      Some { tl_events = events; tl_engine = engine; tl_opens = Array.make env.n [] }
    end

  let span ?(complete = true) ctx ~node ~phase ~start ~stop =
    match ctx with
    | None -> ()
    | Some c -> Obs.Events.span c.tl_events ~node ~phase ~start ~stop ~complete

  let phase_begin ctx ~node phase =
    match ctx with
    | None -> ()
    | Some c ->
        c.tl_opens.(node) <-
          (phase, Sim.Engine.now c.tl_engine) :: c.tl_opens.(node)

  let phase_end ctx ~node phase =
    match ctx with
    | None -> ()
    | Some c -> (
        match List.assoc_opt phase c.tl_opens.(node) with
        | None -> () (* already closed (or never opened): idempotent *)
        | Some start ->
            c.tl_opens.(node) <- List.remove_assoc phase c.tl_opens.(node);
            Obs.Events.span c.tl_events ~node ~phase ~start
              ~stop:(Sim.Engine.now c.tl_engine) ~complete:true)

  (* After [Engine.run]: close dangling phases as incomplete (the
     stall diagnosis the chaos harness reads) and fold the decision
     times into a histogram next to the net's delivery latencies. *)
  let finish ctx ~engine ~net ~per_authority =
    match ctx with
    | None -> None
    | Some c ->
        let now = Sim.Engine.now engine in
        Array.iteri
          (fun node opens ->
            List.iter
              (fun (phase, start) ->
                Obs.Events.span c.tl_events ~node ~phase ~start ~stop:now
                  ~complete:false)
              (List.rev opens))
          c.tl_opens;
        let metrics = Sim.Net.obs_metrics net in
        let h = Obs.Metrics.histogram metrics "time-to-decision" in
        Array.iter
          (fun (a : authority_result) ->
            match a.decided_at with
            | Some d -> Obs.Metrics.observe h d
            | None -> ())
          per_authority;
        Some
          {
            metrics;
            spans = Obs.Events.spans c.tl_events;
            samples = Obs.Events.samples c.tl_events;
          }
end

let majority ~n = (n / 2) + 1

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
  match r.result.obs with
  | None -> None
  | Some o ->
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
        o.spans;
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
