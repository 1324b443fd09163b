module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32
module Runenv = Protocols.Runenv
module Siground = Protocols.Siground
module Wire = Protocols.Wire

let name = "ours"

type params = { doc_timeout : Sim.Simtime.t; view_timeout : Sim.Simtime.t }

let default_params = { doc_timeout = 150.; view_timeout = 5. }

(* Seconds between re-requests of missing documents and signatures. *)
let fetch_retry = 10.

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

module D = Protocols.Driver.Make (struct
  type nonrec msg = msg

  let name = name

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

  (* No transport deadline: documents may take arbitrarily long. *)
  let deadline _ = None
  let sig_push digest signature = Cons_sig { digest; signature }
  let sig_request = Cons_sig_request
  let sig_label = "cons-sig"
  let sig_answer_label = "cons-sig"
end)

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
  (* phase transitions, from which the spans are recorded after the run *)
  mutable started_at : Sim.Simtime.t option;
  mutable proposed_at : Sim.Simtime.t option;   (* first PROPOSAL *)
  mutable agreed_at : Sim.Simtime.t option;     (* first decision after start *)
  mutable first_decision_at : Sim.Simtime.t option;
  mutable signed_at : Sim.Simtime.t option;
}

let run_detailed ?(params = default_params) (env : Runenv.t) =
  let n = env.n in
  let f = Protocols.Agreement.fault_bound ~n in
  let r =
    D.setup env ~labels:[| "document"; "proposal"; "agreement"; "fetch"; "fetch-reply" |]
  in
  let lbl_document = r.labels.(0) in
  let lbl_proposal = r.labels.(1) in
  let lbl_agreement = r.labels.(2) in
  let lbl_fetch = r.labels.(3) in
  let lbl_fetch_reply = r.labels.(4) in
  let engine = r.engine in
  let now () = D.now r in
  let log ?node level fmt = Sim.Trace.logf r.trace ~time:(now ()) ?node level fmt in
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
          started_at = None;
          proposed_at = None;
          agreed_at = None;
          first_decision_at = None;
          signed_at = None;
        })
  in
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
      (* The first proposal ends dissemination. *)
      if node.proposed_at = None then node.proposed_at <- Some (now ());
      let digests =
        Array.init n (fun j ->
            match (node.docs.(j), node.doc_sigs.(j)) with
            | Some doc, Some s -> Some (Dirdoc.Vote.digest doc, s)
            | _ -> None)
      in
      let proposal =
        Dissemination.make_proposal env.keyring ~proposer:node.id ~digests
      in
      let leader = Protocols.Agreement.leader ~n ~view in
      D.send r ~src:node.id ~dst:leader ~label:lbl_proposal (Proposal proposal)
    end
  in
  (* --- aggregation ------------------------------------------------------ *)
  (* One lost Cons_sig broadcast must not strand a node below the
     signature majority forever (the chaos harness's shrunk repro:
     partition one link during aggregation, liveness gone).  Until the
     node has decided, periodically ask every peer for its signature;
     peers that have signed answer with a Cons_sig. *)
  let rec ensure_signatures node =
    if D.request_signatures r ~node:node.id then
      ignore
        (Sim.Engine.schedule_in engine ~after:fetch_retry (fun () ->
             ensure_signatures node))
  in
  (* Documents the agreed vector names that this node lacks, or holds
     in a version with a different digest. *)
  let missing node (value : Dissemination.value) =
    List.filter
      (fun j ->
        match (value.vector.(j), node.docs.(j)) with
        | Some d, Some doc -> not (Digest32.equal d (Dirdoc.Vote.digest doc))
        | Some _, None -> true
        | None, _ -> false)
      (List.init n Fun.id)
  in
  let try_finish node =
    match node.decided_vector with
    | None -> ()
    | Some value ->
        if missing node value = [] then begin
          (match node.fetch_timer with
          | Some h ->
              Sim.Engine.cancel engine h;
              node.fetch_timer <- None
          | None -> ());
          let sig_round = r.rounds.(node.id) in
          if Siground.consensus sig_round = None then begin
            let votes =
              List.filter_map
                (fun j ->
                  match value.Dissemination.vector.(j) with
                  | Some _ -> node.docs.(j)
                  | None -> None)
                (List.init n Fun.id)
            in
            D.sign r ~node:node.id votes;
            node.signed_at <- Some (now ());
            log ~node:node.id Sim.Trace.Notice
              "Aggregated %d votes into a consensus document; broadcasting signature."
              (List.length votes);
            ignore
              (Sim.Engine.schedule_in engine ~after:fetch_retry (fun () ->
                   ensure_signatures node))
          end
        end
  in
  let rec start_fetching node =
    match node.decided_vector with
    | None -> ()
    | Some value -> (
        match missing node value with
        | [] -> try_finish node
        | wanted ->
            D.broadcast r ~src:node.id ~label:lbl_fetch (Fetch { wanted });
            node.fetch_timer <-
              Some
                (Sim.Engine.schedule_in engine ~after:fetch_retry (fun () ->
                     start_fetching node)))
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
        Protocols.Agreement.engine;
        send =
          (fun ~dst m ->
            if dst = node.id then
              (* Local delivery without bandwidth cost. *)
              ignore
                (Sim.Engine.schedule engine ~at:(now ()) (fun () ->
                     match node.hotstuff with
                     | Some hs -> A.handle hs ~src:node.id m
                     | None -> ()))
            else D.send r ~src:node.id ~dst ~label:lbl_agreement (Agreement m));
        validate = (fun v -> Dissemination.validate env.keyring ~n ~f v);
        value_digest = Dissemination.value_digest;
        proposal = (fun () -> Dissemination.Collector.build node.collector);
        decide =
          (fun ~view value ->
            if node.decided_vector = None then begin
              (* A node crashed at t = 0 can decide at its recovery
                 instant before its start event: its agreement phase
                 then starts after the decision and never ends. *)
              if node.started_at <> None then node.agreed_at <- Some (now ());
              node.first_decision_at <- Some (now ())
            end;
            node.decided_vector <- Some value;
            node.decided_view <- Some view;
            log ~node:node.id Sim.Trace.Notice
              "Agreement reached in view %d on a vector with %d documents." view
              (Icps.non_bot value.Dissemination.vector);
            start_fetching node);
        on_view = (fun ~view -> send_proposal_if_ready node ~view);
        log = (fun text -> log ~node:node.id Sim.Trace.Info "%s: %s" A.name text);
      }
    in
    A.create ~keyring:env.keyring ~n ~id:node.id ~view_timeout:params.view_timeout cb
  in
  Array.iter (fun node -> node.hotstuff <- Some (make_hotstuff node)) nodes;
  (* --- network dispatch --------------------------------------------------- *)
  D.handle r (fun ~dst ~src msg ->
      let node = nodes.(dst) in
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
                  D.send r ~src:dst ~dst:src ~label:lbl_fetch_reply
                    (Fetch_reply { doc; signature })
              | _ -> ())
            wanted
      | Cons_sig { digest; signature } -> D.store_signature r ~node:dst digest signature
      | Cons_sig_request -> D.answer_signature_request r ~node:dst ~src);
  (* --- start ------------------------------------------------------------- *)
  (* A node crashed from the first instant starts on recovery: the
     whole startup — document broadcast, document deadline, agreement
     engine — waits.  An equivocator sends conflicting documents to
     even and odd peers. *)
  D.start r (fun id variant ->
      let node = nodes.(id) in
      node.started_at <- Some (now ());
      let sign doc =
        Dissemination.sign_document env.keyring ~sender:id (Dirdoc.Vote.digest doc)
      in
      let doc = env.votes.(id) in
      let signature = sign doc in
      node.docs.(id) <- Some doc;
      node.doc_sigs.(id) <- Some signature;
      let own = Document { doc; signature } in
      (match variant with
      | None -> D.broadcast r ~src:id ~label:lbl_document own
      | Some v ->
          D.split_broadcast r ~src:id ~label:lbl_document ~even:own
            ~odd:(Document { doc = v; signature = sign v }));
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
      | None -> ());
  (* Phases overlap as the protocol allows: dissemination and agreement
     from the start, aggregation from the first decision to signing,
     signature exchange from signing to the signature majority.  A
     phase still open at run end is incomplete.  No lock-step rounds:
     latency is simply time-to-decision. *)
  let spans run_end =
    Array.iter
      (fun node ->
        let span phase start stop =
          D.span r ~node:node.id ~phase ~start
            ~stop:(Option.value stop ~default:run_end)
            ~complete:(stop <> None)
        in
        Option.iter
          (fun start ->
            span "dissemination" start node.proposed_at;
            span "agreement" start node.agreed_at)
          node.started_at;
        Option.iter
          (fun start -> span "aggregation" start node.signed_at)
          node.first_decision_at;
        Option.iter
          (fun start ->
            span "signature-exchange" start (Siground.decided_at r.rounds.(node.id)))
          node.signed_at)
      nodes
  in
  let result = D.run r ~network_time:(fun _ decided -> decided) ~spans in
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
