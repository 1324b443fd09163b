module Sim = Tor_sim
module Signature = Crypto.Signature

let name = "current"
let round_seconds = 150.
let fetch_timeout = 10.

type msg =
  | Vote_push of Dirdoc.Vote.t
  | Vote_request of { wanted : int list }
  | Vote_reply of Dirdoc.Vote.t
  | Sig_push of { digest : Crypto.Digest32.t; signature : Signature.t }
  | Sig_request

type node = {
  id : int;
  votes : Dirdoc.Vote.t option array; (* indexed by authority *)
  sig_round : Siground.t;
  mutable last_vote_at : Sim.Simtime.t;
  mutable replied : bool array; (* peer answered my fetch round *)
}

(* The simulated addresses Shadow assigns in the paper's Figure 1 log. *)
let address_of id = Printf.sprintf "100.0.0.%d:8080" (id + 1)

let msg_size = function
  | Vote_push v | Vote_reply v ->
      Wire.vote_push_bytes ~n_relays:(Dirdoc.Vote.n_relays v)
  | Vote_request _ -> Wire.request_bytes
  | Sig_push _ -> Wire.signature_bytes + Wire.control_bytes
  | Sig_request -> Wire.request_bytes

module Simulator = Runenv.Simulator (struct
  type nonrec msg = msg
end)

let run (env : Runenv.t) =
  let n = env.n in
  let need = Runenv.majority ~n in
  let engine, net = Simulator.obtain ~driver:name env in
  let trace = Sim.Trace.create () in
  Runenv.apply_attacks env net;
  let nodes =
    Array.init n (fun id ->
        {
          id;
          votes = Array.make n None;
          sig_round = Siground.create ~keyring:env.keyring ~node:id ~need;
          last_vote_at = 0.;
          replied = Array.make n false;
        })
  in
  let now () = Sim.Engine.now engine in
  let log ?node level fmt = Sim.Trace.logf trace ~time:(now ()) ?node level fmt in
  (* Message labels, interned once so per-send accounting is an array
     add (DESIGN.md Â§7). *)
  let lbl_vote = Sim.Net.intern net "vote" in
  let lbl_vote_request = Sim.Net.intern net "vote-request" in
  let lbl_vote_fetch = Sim.Net.intern net "vote-fetch" in
  let lbl_sig = Sim.Net.intern net "sig" in
  let lbl_sig_request = Sim.Net.intern net "sig-request" in
  let lbl_sig_fetch = Sim.Net.intern net "sig-fetch" in
  let until_cap = Float.min env.horizon (4. *. round_seconds) in
  let tel = Runenv.Telemetry.start env ~engine ~net ~stop:until_cap () in
  (* Hoisted so the hot send path does not rebuild the option. *)
  let dir_deadline = Some Wire.dir_connection_timeout in
  (* Authorities holding identical vote sets share one aggregation;
     run-local, so parallel sweep runs stay independent. *)
  let agg_memo = Dirdoc.Aggregate.Memo.create () in
  let send ~src ~dst ~label m =
    (* Vote-sized transfers ride Tor's directory connections and give
       up after the client timeout; control messages are too small to
       stall. *)
    let deadline =
      match m with
      | Vote_push _ | Vote_reply _ -> dir_deadline
      | Vote_request _ | Sig_push _ | Sig_request -> None
    in
    Sim.Net.send net ~src ~dst ~size:(msg_size m) ~label ?deadline m
  in
  let store_vote node (v : Dirdoc.Vote.t) =
    let src = v.Dirdoc.Vote.authority in
    if src >= 0 && src < n && node.votes.(src) = None && now () <= 2. *. round_seconds
    then begin
      node.votes.(src) <- Some v;
      node.last_vote_at <- now ()
    end
  in
  let store_sig node ~digest ~signature =
    if now () <= 4. *. round_seconds then
      Siground.store node.sig_round ~now:(now ()) ~digest signature
  in
  Sim.Net.set_handler net (fun ~dst ~src msg ->
      let node = nodes.(dst) in
      if Runenv.awake env dst ~now:(now ()) then
        match msg with
        | Vote_push v | Vote_reply v ->
            node.replied.(src) <- true;
            store_vote node v
        | Vote_request { wanted } ->
            List.iter
              (fun j ->
                match node.votes.(j) with
                | Some v -> send ~src:dst ~dst:src ~label:lbl_vote_fetch (Vote_reply v)
                | None -> ())
              wanted
        | Sig_push { digest; signature } -> store_sig node ~digest ~signature
        | Sig_request -> (
            match (Siground.consensus node.sig_round, Siground.my_signature node.sig_round) with
            | Some c, Some signature ->
                send ~src:dst ~dst:src ~label:lbl_sig_fetch
                  (Sig_push { digest = Dirdoc.Consensus.digest c; signature })
            | _ -> ()));
  (* Behaviour helpers -------------------------------------------------- *)
  let equivocating_variant id =
    (* A second, conflicting vote: same authority, one relay dropped. *)
    let v = env.votes.(id) in
    let relays = Array.to_list v.Dirdoc.Vote.relays in
    let trimmed = match relays with [] -> [] | _ :: rest -> rest in
    Dirdoc.Vote.create ~authority:id
      ~authority_fingerprint:v.Dirdoc.Vote.authority_fingerprint
      ~nickname:v.Dirdoc.Vote.nickname ~published:v.Dirdoc.Vote.published
      ~valid_after:v.Dirdoc.Vote.valid_after ~relays:trimmed
  in
  (* Round 1: push votes. ------------------------------------------------ *)
  let vote_now node =
    let id = node.id in
    node.votes.(id) <- Some env.votes.(id);
    node.last_vote_at <- now ();
    log ~node:id Sim.Trace.Notice "Time to vote.";
    for dst = 0 to n - 1 do
      if dst <> id then send ~src:id ~dst ~label:lbl_vote (Vote_push env.votes.(id))
    done
  in
  Array.iter
    (fun node ->
      let id = node.id in
      ignore
        (Sim.Engine.schedule engine ~owner:id ~at:0. (fun () ->
             match env.behaviors.(id) with
             | Runenv.Silent -> ()
             | Runenv.Honest -> vote_now node
             | Runenv.Crashed { start; stop } ->
                 if start > 0. then vote_now node
                 else
                   (* Down at vote time: push the vote on recovery.
                      Peers discard it if the voting window has closed
                      (store_vote's cutoff), exactly like a late real
                      authority. *)
                   ignore
                     (Sim.Engine.schedule engine ~at:stop (fun () -> vote_now node))
             | Runenv.Equivocating ->
                 node.votes.(id) <- Some env.votes.(id);
                 let variant = equivocating_variant id in
                 for dst = 0 to n - 1 do
                   if dst <> id then
                     let v = if dst land 1 = 0 then env.votes.(id) else variant in
                     send ~src:id ~dst ~label:lbl_vote (Vote_push v)
                 done)))
    nodes;
  (* Round 2: fetch missing votes (with one mid-round retry). ------------ *)
  let fetch_missing node ~retry =
    if not (Runenv.awake env node.id ~now:(now ())) then ()
    else begin
      let missing =
        List.filter (fun j -> node.votes.(j) = None) (List.init n Fun.id)
      in
      if missing <> [] then begin
        if not retry then begin
          log ~node:node.id Sim.Trace.Notice "Time to fetch any votes that we're missing.";
          let fingerprints =
            String.concat "\n "
              (List.map (Crypto.Keyring.fingerprint env.keyring) missing)
          in
          log ~node:node.id Sim.Trace.Notice
            "We're missing votes from %d authorities (%s). Asking every other authority for a copy."
            (List.length missing) fingerprints
        end;
        node.replied <- Array.make n false;
        for dst = 0 to n - 1 do
          if dst <> node.id then
            send ~src:node.id ~dst ~label:lbl_vote_request (Vote_request { wanted = missing })
        done;
        ignore
          (Sim.Engine.schedule_in engine ~after:fetch_timeout (fun () ->
               for dst = 0 to n - 1 do
                 if dst <> node.id && not node.replied.(dst) then
                   log ~node:node.id Sim.Trace.Info
                     "connection_dir_client_request_failed(): Giving up downloading votes from %s"
                     (address_of dst)
               done))
      end
    end
  in
  (* Tor re-requests missing votes throughout the fetch round; each
     retry goes to every peer and each holder answers with a full copy,
     which is the duplication that inflates traffic under attack. *)
  let retry_interval = 20. in
  Array.iter
    (fun node ->
      ignore
        (Sim.Engine.schedule engine ~owner:node.id ~at:round_seconds (fun () ->
             fetch_missing node ~retry:false));
      let retries = int_of_float ((round_seconds -. retry_interval) /. retry_interval) in
      for k = 1 to retries do
        ignore
          (Sim.Engine.schedule engine ~owner:node.id
             ~at:(round_seconds +. (float_of_int k *. retry_interval))
             (fun () -> fetch_missing node ~retry:true))
      done)
    nodes;
  (* Round 3: compute consensus and push signatures. --------------------- *)
  Array.iter
    (fun node ->
      ignore
        (Sim.Engine.schedule engine ~owner:node.id ~at:(2. *. round_seconds)
           (fun () ->
             if not (Runenv.awake env node.id ~now:(now ())) then ()
             else begin
               log ~node:node.id Sim.Trace.Notice "Time to compute a consensus.";
               let held = Array.to_list node.votes |> List.filter_map Fun.id in
               if List.length held < need then
                 log ~node:node.id Sim.Trace.Warn
                   "We don't have enough votes to generate a consensus: %d of %d"
                   (List.length held) need
               else begin
                 let c =
                   Dirdoc.Aggregate.consensus_memo ~memo:agg_memo
                     ~valid_after:env.valid_after ~votes:held
                 in
                 let signature = Siground.set_consensus node.sig_round ~now:(now ()) c in
                 for dst = 0 to n - 1 do
                   if dst <> node.id then
                     send ~src:node.id ~dst ~label:lbl_sig
                       (Sig_push { digest = Dirdoc.Consensus.digest c; signature })
                 done
               end
             end)))
    nodes;
  (* Round 4: fetch missing signatures. ----------------------------------- *)
  Array.iter
    (fun node ->
      ignore
        (Sim.Engine.schedule engine ~owner:node.id ~at:(3. *. round_seconds)
           (fun () ->
             if Runenv.awake env node.id ~now:(now ())
                && Siground.consensus node.sig_round <> None
                && Siground.count node.sig_round < need
             then
               for dst = 0 to n - 1 do
                 if dst <> node.id then
                   send ~src:node.id ~dst ~label:lbl_sig_request Sig_request
               done)))
    nodes;
  Sim.Engine.run ~until:until_cap engine;
  (* Phase spans: the protocol is lock-step, so the spans are the
     rounds themselves, emitted after the run from each node's final
     state.  A phase a node never reached (no consensus, so no
     signature collection) gets no span, which is what makes an
     incomplete span a stall diagnosis. *)
  let run_end = now () in
  Array.iter
    (fun node ->
      if Runenv.participates env.behaviors.(node.id) then begin
        let id = node.id in
        let held =
          Array.fold_left
            (fun acc v -> if v = None then acc else acc + 1)
            0 node.votes
        in
        let consensus = Siground.consensus node.sig_round in
        let decided = Siground.decided_at node.sig_round in
        Runenv.Telemetry.span tel ~node:id ~phase:"vote-dissemination"
          ~start:0. ~stop:round_seconds;
        Runenv.Telemetry.span tel ~node:id ~phase:"vote-collection"
          ~start:round_seconds ~stop:(2. *. round_seconds)
          ~complete:(held >= need);
        if held >= need then
          Runenv.Telemetry.span tel ~node:id ~phase:"aggregation"
            ~start:(2. *. round_seconds) ~stop:(3. *. round_seconds)
            ~complete:(consensus <> None);
        if consensus <> None then
          Runenv.Telemetry.span tel ~node:id ~phase:"signature-exchange"
            ~start:(2. *. round_seconds)
            ~stop:
              (match decided with
              | Some d -> Float.max d (2. *. round_seconds)
              | None -> run_end)
            ~complete:(decided <> None)
      end)
    nodes;
  let per_authority =
    Array.map
      (fun node ->
        let decided_at = Siground.decided_at node.sig_round in
        let network_time =
          match decided_at with
          | Some d ->
              (* Paper metric: per-round network time, i.e. vote-round
                 completion plus signature-round completion. *)
              Some (node.last_vote_at +. (d -. (2. *. round_seconds)))
          | None -> None
        in
        {
          Runenv.consensus = Siground.consensus node.sig_round;
          signatures = Siground.count node.sig_round;
          decided_at;
          network_time;
        })
      nodes
  in
  let obs = Runenv.Telemetry.finish tel ~engine ~net ~per_authority in
  { Runenv.protocol = name; per_authority; stats = Sim.Net.stats net; trace; obs }
