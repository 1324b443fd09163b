module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32
module Runenv = Protocols.Runenv
module Siground = Protocols.Siground
module Wire = Protocols.Wire

let name = "ours"

type params = {
  doc_timeout : Sim.Simtime.t;
  view_timeout : Sim.Simtime.t;
  fetch_retry : Sim.Simtime.t;
}

let default_params = { doc_timeout = 150.; view_timeout = 5.; fetch_retry = 10. }

type detailed = {
  result : Runenv.run_result;
  vectors : Digest32.t Icps.vector array;
  decided_views : int option array;
}

module Make (A : Protocols.Agreement.S) = struct
  let name = "ours+" ^ A.name

type msg =
  | Document of { doc : Dirdoc.Vote.t; signature : Signature.t }
  | Proposal of Dissemination.proposal
  | Agreement of Dissemination.value A.msg
  | Fetch of { wanted : int list }
  | Fetch_reply of { doc : Dirdoc.Vote.t; signature : Signature.t }
  | Cons_sig of { digest : Digest32.t; signature : Signature.t }
  | Cons_sig_request

module Simulator = Runenv.Simulator (struct
  type nonrec msg = msg
end)

let msg_size = function
  | Document { doc; _ } | Fetch_reply { doc; _ } ->
      Wire.vote_push_bytes ~n_relays:(Dirdoc.Vote.n_relays doc) + Signature.wire_size
  | Proposal p ->
      Wire.control_bytes
      + Array.fold_left
          (fun acc (e : Dissemination.entry) ->
            acc + Digest32.wire_size + Signature.wire_size
            + match e.sender_sig with Some _ -> Signature.wire_size | None -> 0)
          0 p.entries
  | Agreement m -> A.msg_size ~value_size:Dissemination.value_wire_size m
  | Fetch _ | Cons_sig_request -> Wire.request_bytes
  | Cons_sig _ -> Wire.signature_bytes + Wire.control_bytes

type node = {
  id : int;
  (* dissemination *)
  docs : Dirdoc.Vote.t option array;           (* first valid document per sender *)
  doc_sigs : Signature.t option array;         (* the sender's digest signature *)
  mutable doc_deadline_passed : bool;
  mutable proposal_sent_view : int;            (* last view we sent a PROPOSAL for *)
  collector : Dissemination.Collector.t;       (* leader-side accumulation *)
  (* agreement *)
  mutable hotstuff : Dissemination.value A.t option;
  mutable decided_vector : Dissemination.value option;
  mutable decided_view : int option;
  (* aggregation *)
  mutable fetch_timer : Sim.Engine.handle option;
  sig_round : Siground.t;
}

let run_detailed ?(params = default_params) (env : Runenv.t) =
  let n = env.n in
  let f = Icps.fault_bound ~n in
  let need = Runenv.majority ~n in
  let engine, net = Simulator.obtain ~driver:name env in
  let trace = Sim.Trace.create () in
  Runenv.apply_attacks env net;
  let now () = Sim.Engine.now engine in
  let log ?node level fmt = Sim.Trace.logf trace ~time:(now ()) ?node level fmt in
  (* Message labels, interned once so per-send accounting is an array
     add (DESIGN.md §7). *)
  let lbl_document = Sim.Net.intern net "document" in
  let lbl_proposal = Sim.Net.intern net "proposal" in
  let lbl_agreement = Sim.Net.intern net "agreement" in
  let lbl_fetch = Sim.Net.intern net "fetch" in
  let lbl_fetch_reply = Sim.Net.intern net "fetch-reply" in
  let lbl_cons_sig = Sim.Net.intern net "cons-sig" in
  let lbl_sig_request = Sim.Net.intern net "sig-request" in
  (* Event-driven protocol, event-driven spans: phases open and close
     at the actual transitions (first proposal sent, agreement decided,
     consensus signed, signature majority reached), not on a fixed
     round grid.  Every helper is a no-op when telemetry is off. *)
  let tel = Runenv.Telemetry.start env ~engine ~net () in
  (* Authorities that hold identical vote sets share one aggregation;
     the memo is run-local (aggregation is pure — the memo only dedups
     work). *)
  let agg_memo = Dirdoc.Aggregate.Memo.create () in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          docs = Array.make n None;
          doc_sigs = Array.make n None;
          doc_deadline_passed = false;
          proposal_sent_view = -1;
          collector = Dissemination.Collector.create env.keyring ~n ~f;
          hotstuff = None;
          decided_vector = None;
          decided_view = None;
          fetch_timer = None;
          sig_round = Siground.create ~keyring:env.keyring ~node:id ~need;
        })
  in
  let send ~src ~dst ~label m = Sim.Net.send net ~src ~dst ~size:(msg_size m) ~label m in
  let broadcast ~src ~label m = Sim.Net.broadcast net ~src ~size:(msg_size m) ~label m in
  (* --- dissemination ---------------------------------------------------- *)
  let docs_held node =
    Array.fold_left (fun acc d -> match d with Some _ -> acc + 1 | None -> acc) 0 node.docs
  in
  let dissemination_ready node =
    let held = docs_held node in
    held = n || (node.doc_deadline_passed && held >= n - f)
  in
  let send_proposal_if_ready node ~view =
    if dissemination_ready node && node.proposal_sent_view < view then begin
      node.proposal_sent_view <- view;
      (* First proposal = enough documents collected; idempotent on the
         re-proposals of later views. *)
      Runenv.Telemetry.phase_end tel ~node:node.id "dissemination";
      let digests =
        Array.init n (fun j ->
            match (node.docs.(j), node.doc_sigs.(j)) with
            | Some doc, Some s -> Some (Dirdoc.Vote.digest doc, s)
            | _ -> None)
      in
      let proposal =
        Dissemination.make_proposal env.keyring ~proposer:node.id ~digests
      in
      let leader = A.leader ~n ~view in
      send ~src:node.id ~dst:leader ~label:lbl_proposal (Proposal proposal)
    end
  in
  (* --- aggregation ------------------------------------------------------ *)
  (* One lost Cons_sig broadcast must not strand a node below the
     signature majority forever (the chaos harness's shrunk repro:
     partition one link during aggregation, liveness gone).  Until the
     node has decided, periodically ask every peer for its signature;
     peers that have signed answer with a Cons_sig. *)
  let rec ensure_signatures node =
    if Siground.consensus node.sig_round <> None
       && Siground.decided_at node.sig_round = None
    then begin
      broadcast ~src:node.id ~label:lbl_sig_request Cons_sig_request;
      ignore
        (Sim.Engine.schedule_in engine ~after:params.fetch_retry (fun () ->
             ensure_signatures node))
    end
  in
  let try_finish node =
    match node.decided_vector with
    | None -> ()
    | Some value ->
        let missing =
          List.filter
            (fun j ->
              match (value.Dissemination.vector.(j), node.docs.(j)) with
              | Some d, Some doc -> not (Digest32.equal d (Dirdoc.Vote.digest doc))
              | Some _, None -> true
              | None, _ -> false)
            (List.init n Fun.id)
        in
        if missing = [] then begin
          (match node.fetch_timer with
          | Some h ->
              Sim.Engine.cancel engine h;
              node.fetch_timer <- None
          | None -> ());
          if Siground.consensus node.sig_round = None then begin
            let votes =
              List.filter_map
                (fun j ->
                  match value.Dissemination.vector.(j) with
                  | Some _ -> node.docs.(j)
                  | None -> None)
                (List.init n Fun.id)
            in
            let c =
              Dirdoc.Aggregate.consensus_memo ~memo:agg_memo
                ~valid_after:env.valid_after ~votes
            in
            let signature = Siground.set_consensus node.sig_round ~now:(now ()) c in
            Runenv.Telemetry.phase_end tel ~node:node.id "aggregation";
            Runenv.Telemetry.phase_begin tel ~node:node.id "signature-exchange";
            if Siground.decided_at node.sig_round <> None then
              (* Own signature already suffices (tiny n). *)
              Runenv.Telemetry.phase_end tel ~node:node.id "signature-exchange";
            log ~node:node.id Sim.Trace.Notice
              "Aggregated %d votes into a consensus document; broadcasting signature."
              (List.length votes);
            broadcast ~src:node.id ~label:lbl_cons_sig
              (Cons_sig { digest = Dirdoc.Consensus.digest c; signature });
            ignore
              (Sim.Engine.schedule_in engine ~after:params.fetch_retry (fun () ->
                   ensure_signatures node))
          end
        end
  in
  let rec start_fetching node =
    match node.decided_vector with
    | None -> ()
    | Some value ->
        let missing =
          List.filter
            (fun j ->
              match (value.Dissemination.vector.(j), node.docs.(j)) with
              | Some _, None -> true
              | Some d, Some doc -> not (Digest32.equal d (Dirdoc.Vote.digest doc))
              | None, _ -> false)
            (List.init n Fun.id)
        in
        if missing <> [] then begin
          broadcast ~src:node.id ~label:lbl_fetch (Fetch { wanted = missing });
          node.fetch_timer <-
            Some
              (Sim.Engine.schedule_in engine ~after:params.fetch_retry (fun () ->
                   start_fetching node))
        end
        else try_finish node
  in
  (* --- document intake --------------------------------------------------- *)
  let accept_document node ~origin doc signature =
    if origin >= 0 && origin < n && node.docs.(origin) = None then begin
      let digest = Dirdoc.Vote.digest doc in
      let payload = Dissemination.doc_payload ~sender:origin (Some digest) in
      if signature.Signature.signer = origin
         && Signature.verify env.keyring signature payload
      then begin
        node.docs.(origin) <- Some doc;
        node.doc_sigs.(origin) <- Some signature;
        (match node.hotstuff with
        | Some hs ->
            send_proposal_if_ready node ~view:(A.current_view hs);
            (* A leader whose own vector was blocked may become ready. *)
            A.notify_ready hs
        | None -> ());
        try_finish node
      end
    end
  in
  (* --- hotstuff wiring --------------------------------------------------- *)
  let make_hotstuff node =
    let cb =
      {
        A.now;
        schedule = (fun after fn -> Sim.Engine.schedule_in engine ~after fn);
        cancel = (fun h -> Sim.Engine.cancel engine h);
        send =
          (fun ~dst m ->
            if dst = node.id then
              (* Local delivery without bandwidth cost. *)
              ignore
                (Sim.Engine.schedule engine ~at:(now ()) (fun () ->
                     match node.hotstuff with
                     | Some hs -> A.handle hs ~src:node.id m
                     | None -> ()))
            else send ~src:node.id ~dst ~label:lbl_agreement (Agreement m));
        validate = (fun v -> Dissemination.validate env.keyring ~n ~f v);
        value_digest = Dissemination.value_digest;
        proposal = (fun () -> Dissemination.Collector.build node.collector);
        decide =
          (fun ~view value ->
            if node.decided_vector = None then begin
              Runenv.Telemetry.phase_end tel ~node:node.id "agreement";
              Runenv.Telemetry.phase_begin tel ~node:node.id "aggregation"
            end;
            node.decided_vector <- Some value;
            node.decided_view <- Some view;
            log ~node:node.id Sim.Trace.Notice
              "Agreement reached in view %d on a vector with %d documents." view
              (Icps.non_bot value.Dissemination.vector);
            start_fetching node);
        on_view = (fun ~view -> send_proposal_if_ready node ~view);
        log =
          (fun text -> log ~node:node.id Sim.Trace.Info "hotstuff: %s" text);
      }
    in
    A.create ~keyring:env.keyring ~n ~id:node.id ~view_timeout:params.view_timeout cb
  in
  Array.iter (fun node -> node.hotstuff <- Some (make_hotstuff node)) nodes;
  (* --- network dispatch --------------------------------------------------- *)
  Sim.Net.set_handler net (fun ~dst ~src msg ->
      let node = nodes.(dst) in
      if Runenv.awake env dst ~now:(now ()) then
        match msg with
        | Document { doc; signature } ->
            accept_document node ~origin:doc.Dirdoc.Vote.authority doc signature
        | Fetch_reply { doc; signature } ->
            accept_document node ~origin:doc.Dirdoc.Vote.authority doc signature
        | Proposal p -> (
            Dissemination.Collector.add node.collector p;
            match node.hotstuff with
            | Some hs -> A.notify_ready hs
            | None -> ())
        | Agreement m -> (
            match node.hotstuff with
            | Some hs -> A.handle hs ~src m
            | None -> ())
        | Fetch { wanted } ->
            List.iter
              (fun j ->
                match (node.docs.(j), node.doc_sigs.(j)) with
                | Some doc, Some signature ->
                    send ~src:dst ~dst:src ~label:lbl_fetch_reply
                      (Fetch_reply { doc; signature })
                | _ -> ())
              wanted
        | Cons_sig { digest; signature } ->
            Siground.store node.sig_round ~now:(now ()) ~digest signature;
            if Siground.decided_at node.sig_round <> None then
              Runenv.Telemetry.phase_end tel ~node:dst "signature-exchange"
        | Cons_sig_request -> (
            match
              (Siground.consensus node.sig_round, Siground.my_signature node.sig_round)
            with
            | Some c, Some signature ->
                send ~src:dst ~dst:src ~label:lbl_cons_sig
                  (Cons_sig { digest = Dirdoc.Consensus.digest c; signature })
            | _ -> ()));
  (* --- start ------------------------------------------------------------- *)
  let start_node node =
    let id = node.id in
    Runenv.Telemetry.phase_begin tel ~node:id "dissemination";
    Runenv.Telemetry.phase_begin tel ~node:id "agreement";
    (match env.behaviors.(id) with
    | Runenv.Silent -> assert false (* never started; see below *)
    | Runenv.Honest | Runenv.Crashed _ ->
        let doc = env.votes.(id) in
        let signature =
          Dissemination.sign_document env.keyring ~sender:id
            (Dirdoc.Vote.digest doc)
        in
        node.docs.(id) <- Some doc;
        node.doc_sigs.(id) <- Some signature;
        broadcast ~src:id ~label:lbl_document (Document { doc; signature })
    | Runenv.Equivocating ->
        (* Conflicting documents to even/odd peers. *)
        let doc = env.votes.(id) in
        let relays = Array.to_list doc.Dirdoc.Vote.relays in
        let trimmed = match relays with [] -> [] | _ :: rest -> rest in
        let variant =
          Dirdoc.Vote.create ~authority:id
            ~authority_fingerprint:doc.Dirdoc.Vote.authority_fingerprint
            ~nickname:doc.Dirdoc.Vote.nickname
            ~published:doc.Dirdoc.Vote.published
            ~valid_after:doc.Dirdoc.Vote.valid_after ~relays:trimmed
        in
        node.docs.(id) <- Some doc;
        node.doc_sigs.(id) <-
          Some
            (Dissemination.sign_document env.keyring ~sender:id
               (Dirdoc.Vote.digest doc));
        for dst = 0 to n - 1 do
          if dst <> id then begin
            let d = if dst land 1 = 0 then doc else variant in
            let signature =
              Dissemination.sign_document env.keyring ~sender:id
                (Dirdoc.Vote.digest d)
            in
            send ~src:id ~dst ~label:lbl_document (Document { doc = d; signature })
          end
        done);
    ignore
      (Sim.Engine.schedule_in engine ~after:params.doc_timeout (fun () ->
           node.doc_deadline_passed <- true;
           match node.hotstuff with
           | Some hs ->
               send_proposal_if_ready node ~view:(A.current_view hs);
               A.notify_ready hs
           | None -> ()));
    match node.hotstuff with
    | Some hs -> A.start hs
    | None -> ()
  in
  Array.iter
    (fun node ->
      let id = node.id in
      ignore
        (Sim.Engine.schedule engine ~owner:id ~at:0. (fun () ->
             match env.behaviors.(id) with
             | Runenv.Silent -> ()
             | Runenv.Crashed { start; stop } when start <= 0. ->
                 (* Down from the first instant: the whole startup —
                    document broadcast, document deadline, agreement
                    engine — waits for recovery. *)
                 ignore
                   (Sim.Engine.schedule engine ~at:stop (fun () -> start_node node))
             | Runenv.Honest | Runenv.Equivocating | Runenv.Crashed _ ->
                 start_node node)))
    nodes;
  Sim.Engine.run ~until:env.horizon engine;
  let per_authority =
    Array.map
      (fun node ->
        let decided_at = Siground.decided_at node.sig_round in
        {
          Runenv.consensus = Siground.consensus node.sig_round;
          signatures = Siground.count node.sig_round;
          decided_at;
          (* No lock-step rounds: latency is simply time-to-decision. *)
          network_time = decided_at;
        })
      nodes
  in
  let obs = Runenv.Telemetry.finish tel ~engine ~net ~per_authority in
  let result =
    { Runenv.protocol = name; per_authority; stats = Sim.Net.stats net; trace; obs }
  in
  {
    result;
    vectors =
      Array.map
        (fun node ->
          match node.decided_vector with
          | Some v -> Array.copy v.Dissemination.vector
          | None -> [||])
        nodes;
    decided_views = Array.map (fun node -> node.decided_view) nodes;
  }

let run ?params env = (run_detailed ?params env).result
end

module Over_hotstuff = Make (Protocols.Hotstuff)
module Over_tendermint = Make (Protocols.Tendermint)
module Over_pbft = Make (Protocols.Pbft)

let run_detailed ?params env =
  let d = Over_hotstuff.run_detailed ?params env in
  (* The paper's protocol instance keeps the plain name. *)
  { d with result = { d.result with Runenv.protocol = name } }

let run ?params env = (run_detailed ?params env).result
