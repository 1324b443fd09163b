module Sim = Tor_sim

module type PROTOCOL = sig
  type msg

  val name : string
  val msg_size : msg -> int
  val deadline : msg -> Sim.Simtime.t option
  val sig_push : Crypto.Digest32.t -> Crypto.Signature.t -> msg
  val sig_request : msg
  val sig_label : string
  val sig_answer_label : string
end

(* Install the attack windows on the NICs, the fault injector and the
   defenses.  A NIC appends breakpoints in time order, so each node's
   windows go in start order ([Spec.validate] keeps them disjoint).
   Crash-window behaviors compile to [Fault.Crash] entries so the
   network suppresses the node's sends and deliveries during the
   window, whatever the protocol on top; the driver only has to time
   the node's own actions (see [awake]).  The merged plan is a pure
   function of the spec, so the injector's RNG stream is too. *)
let apply_attacks (env : Runenv.t) net =
  List.iter
    (fun (a : Runenv.attack) ->
      Sim.Net.limit_node net ~node:a.node ~start:a.start ~stop:a.stop
        ~bits_per_sec:a.bits_per_sec)
    (List.stable_sort
       (fun (a : Runenv.attack) (b : Runenv.attack) ->
         compare (a.start, a.stop) (b.start, b.stop))
       env.attacks);
  let behavior_crashes =
    List.concat_map
      (fun i ->
        match env.behaviors.(i) with
        | Runenv.Crashed { start; stop } ->
            [ { Sim.Fault.kind = Sim.Fault.Crash { node = i }; start; stop } ]
        | Honest | Silent | Equivocating -> [])
      (List.init env.n Fun.id)
  in
  let base = Option.value env.fault_plan ~default:Sim.Fault.empty in
  let merged = { base with Sim.Fault.faults = base.Sim.Fault.faults @ behavior_crashes } in
  if merged.Sim.Fault.faults <> [] then
    Sim.Net.set_fault net merged;
  match env.defense with
  | Some p when not (Defense.Plan.is_empty p) -> Sim.Net.set_defense net p
  | Some _ | None -> ()

module Make (P : PROTOCOL) = struct
  type t = {
    env : Runenv.t;
    engine : Sim.Engine.t;
    net : P.msg Sim.Net.t;
    trace : Sim.Trace.t;
    events : Obs.Events.t;
    tel : Obs.Events.t option;
    labels : Sim.Stats.label array;
    rounds : Siground.t array;
    need : int;
    round_seconds : Sim.Simtime.t;
    stop : Sim.Simtime.t;
    memo : Dirdoc.Aggregate.Memo.t;
    lbl_sig : Sim.Stats.label;
    lbl_sig_request : Sim.Stats.label;
    lbl_sig_answer : Sim.Stats.label;
  }

  (* A simulator lives for exactly one run: every setup builds its own
     engine and network.  Labels are looked up once so a send records
     into the label it carries (DESIGN.md §7).  Telemetry starts before
     the driver schedules anything: its t = 0 probes must come before
     any driver event they tie with. *)
  let setup ?(round_seconds = infinity) (env : Runenv.t) ~labels =
    let engine = Sim.Engine.create ~nodes:env.n () in
    let net =
      Sim.Net.create ~engine ~topology:env.topology
        ~bits_per_sec:env.bandwidth_bits_per_sec ()
    in
    let trace = Sim.Trace.create () in
    apply_attacks env net;
    let label = Sim.Stats.label (Sim.Net.stats net) in
    let labels = Array.map label labels in
    let lbl_sig = label P.sig_label in
    let lbl_sig_request = label "sig-request" in
    let lbl_sig_answer = label P.sig_answer_label in
    let stop = Float.min env.horizon (4. *. round_seconds) in
    let tel = Runenv.Telemetry.start env ~net ~stop in
    let need = Runenv.majority ~n:env.n in
    {
      env;
      engine;
      net;
      trace;
      events = Obs.Events.create ();
      tel;
      labels;
      rounds =
        Array.init env.n (fun node -> Siground.create ~keyring:env.keyring ~node ~need);
      need;
      round_seconds;
      stop;
      memo = Dirdoc.Aggregate.Memo.of_population env.votes;
      lbl_sig;
      lbl_sig_request;
      lbl_sig_answer;
    }

  let now t = Sim.Engine.now t.engine

  let awake t id =
    (match t.env.behaviors.(id) with
    | Runenv.Honest | Runenv.Equivocating -> true
    | Runenv.Silent -> false
    | Runenv.Crashed { start; stop } -> not (now t >= start && now t < stop))
    && not (Sim.Net.quiet t.net id)

  let send t ~src ~dst ~label m =
    Sim.Net.send t.net ~src ~dst ~size:(P.msg_size m) ~label ?deadline:(P.deadline m) m

  let broadcast t ~src ~label m =
    Sim.Net.broadcast t.net ~src ~size:(P.msg_size m) ~label ?deadline:(P.deadline m) m

  let split_broadcast t ~src ~label ~even ~odd =
    for dst = 0 to t.env.n - 1 do
      if dst <> src then send t ~src ~dst ~label (if dst land 1 = 0 then even else odd)
    done

  let handle t f =
    Sim.Net.set_handler t.net (fun ~dst ~src msg ->
        if awake t dst then f ~dst ~src msg)

  let start t f =
    for id = 0 to t.env.n - 1 do
      ignore
        (Sim.Engine.schedule t.engine ~owner:id ~at:0. (fun () ->
             match t.env.behaviors.(id) with
             | Runenv.Silent -> ()
             | Runenv.Crashed { start; stop } when start <= 0. ->
                 (* Down at start-up: start on recovery. *)
                 ignore (Sim.Engine.schedule t.engine ~at:stop (fun () -> f id None))
             | Runenv.Honest | Runenv.Crashed _ -> f id None
             | Runenv.Equivocating -> f id (Some (Dirdoc.Aggregate.variant ~memo:t.memo id))))
    done

  let store_signature t ~node digest signature =
    Siground.store t.rounds.(node) ~now:(now t) ~digest signature

  let answer_signature_request t ~node ~src =
    let round = t.rounds.(node) in
    match (Siground.consensus round, Siground.my_signature round) with
    | Some c, Some signature ->
        send t ~src:node ~dst:src ~label:t.lbl_sig_answer
          (P.sig_push (Dirdoc.Consensus.digest c) signature)
    | _ -> ()

  (* Authorities holding identical vote sets share one aggregation
     through the population's memo, within a run and across runs. *)
  let sign t ~node votes =
    let c =
      Dirdoc.Aggregate.consensus_memo ~memo:t.memo ~valid_after:t.env.valid_after ~votes
    in
    let signature = Siground.set_consensus t.rounds.(node) ~now:(now t) c in
    broadcast t ~src:node ~label:t.lbl_sig
      (P.sig_push (Dirdoc.Consensus.digest c) signature)

  let request_signatures t ~node =
    let round = t.rounds.(node) in
    let short = Siground.consensus round <> None && Siground.decided_at round = None in
    if short then broadcast t ~src:node ~label:t.lbl_sig_request P.sig_request;
    short

  let span ?(complete = true) t ~node ~phase ~start ~stop =
    Obs.Events.span t.events ~node ~phase ~start ~stop ~complete

  (* Every run records its spans after the run, from each node's final
     state, with or without telemetry. *)
  let run t ~network_time ~spans =
    Sim.Engine.run ~until:t.stop t.engine;
    spans (now t);
    let per_authority =
      Array.mapi
        (fun id round ->
          let decided_at = Siground.decided_at round in
          {
            Runenv.consensus = Siground.consensus round;
            signatures = Siground.count round;
            decided_at;
            network_time = Option.map (network_time id) decided_at;
          })
        t.rounds
    in
    {
      Runenv.protocol = P.name;
      per_authority;
      stats = Sim.Net.stats t.net;
      trace = t.trace;
      spans = Obs.Events.spans t.events;
      obs = Runenv.Telemetry.finish t.tel ~net:t.net ~per_authority;
    }

  let lockstep t ~held ~vote_spans ~last_vote_at =
    let round k = float_of_int k *. t.round_seconds in
    let at_round k f =
      for id = 0 to t.env.n - 1 do
        ignore
          (Sim.Engine.schedule t.engine ~owner:id ~at:(round k) (fun () ->
               if awake t id then f id))
      done
    in
    at_round 2 (fun id ->
        let votes = held id in
        let count = List.length votes in
        if count < t.need then
          Sim.Trace.logf t.trace ~time:(now t) ~node:id Sim.Trace.Warn
            "We don't have enough votes to generate a consensus: %d of %d" count t.need
        else sign t ~node:id votes);
    at_round 3 (fun id -> ignore (request_signatures t ~node:id));
    (* Lock-step spans are the rounds themselves.  A phase a node never
       reached gets no span, which is what makes an incomplete span a
       stall diagnosis.  Network time is the paper's metric: vote-round
       completion plus signature-round completion. *)
    run t
      ~network_time:(fun id d -> last_vote_at id +. (d -. round 2))
      ~spans:(fun run_end ->
        Array.iteri
          (fun id sig_round ->
            if Runenv.participates t.env.behaviors.(id) then begin
              let consensus = Siground.consensus sig_round in
              let decided = Siground.decided_at sig_round in
              if vote_spans id then
                span t ~node:id ~phase:"aggregation" ~start:(round 2) ~stop:(round 3)
                  ~complete:(consensus <> None);
              if consensus <> None then
                span t ~node:id ~phase:"signature-exchange" ~start:(round 2)
                  ~stop:(match decided with Some d -> Float.max d (round 2) | None -> run_end)
                  ~complete:(decided <> None)
            end)
          t.rounds)
end
