module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

let name = "synchronous"
let round_seconds = 150.

type msg =
  | Ds_vote of { origin : int; vote : Dirdoc.Vote.t; chain : Signature.t list }
  | Sig_push of { digest : Digest32.t; signature : Signature.t }
  | Sig_request

type node = {
  id : int;
  accepted : Dirdoc.Vote.t option array; (* by origin *)
  confirmations : (int, unit) Hashtbl.t array;
      (* per origin: distinct signers seen across valid chains.  A vote
         is committed only with >= 2 signers (sender plus one echoer) —
         the Dolev-Strong acceptance threshold that makes equivocation
         by the sender detectable before the vote is used. *)
  equivocated : bool array;
  echoed : bool array; (* whether we already forwarded origin's vote *)
  sig_round : Siground.t;
  mutable last_vote_at : Sim.Simtime.t;
}

let committed node ~origin =
  node.accepted.(origin) <> None
  && (origin = node.id || Hashtbl.length node.confirmations.(origin) >= 2)
  && not node.equivocated.(origin)

let msg_size = function
  | Ds_vote { vote; chain; _ } ->
      Wire.vote_push_bytes ~n_relays:(Dirdoc.Vote.n_relays vote)
      + (List.length chain * Wire.signature_bytes)
  | Sig_push _ -> Wire.signature_bytes + Wire.control_bytes
  | Sig_request -> Wire.request_bytes

module Simulator = Runenv.Simulator (struct
  type nonrec msg = msg
end)

let chain_payload ~origin digest =
  Printf.sprintf "ds|%d|%s" origin (Digest32.raw digest)

(* A chain is valid when the first signer is the origin, signers are
   distinct, and every signature covers the origin/digest payload. *)
let chain_valid keyring ~origin ~digest chain =
  match chain with
  | [] -> false
  | first :: _ ->
      first.Signature.signer = origin
      &&
      let payload = chain_payload ~origin digest in
      let signers = List.map (fun s -> s.Signature.signer) chain in
      List.length (List.sort_uniq Int.compare signers) = List.length chain
      && List.for_all (fun s -> Signature.verify keyring s payload) chain

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
          accepted = Array.make n None;
          confirmations = Array.init n (fun _ -> Hashtbl.create 4);
          equivocated = Array.make n false;
          echoed = Array.make n false;
          sig_round = Siground.create ~keyring:env.keyring ~node:id ~need;
          last_vote_at = 0.;
        })
  in
  let now () = Sim.Engine.now engine in
  let log ?node level fmt = Sim.Trace.logf trace ~time:(now ()) ?node level fmt in
  (* Message labels, interned once so per-send accounting is an array
     add (DESIGN.md Â§7). *)
  let lbl_ds_vote = Sim.Net.intern net "ds-vote" in
  let lbl_ds_echo = Sim.Net.intern net "ds-echo" in
  let lbl_sig = Sim.Net.intern net "sig" in
  let lbl_sig_request = Sim.Net.intern net "sig-request" in
  let lbl_sig_fetch = Sim.Net.intern net "sig-fetch" in
  let until_cap = Float.min env.horizon (4. *. round_seconds) in
  let tel = Runenv.Telemetry.start env ~engine ~net ~stop:until_cap () in
  let dir_deadline = Some Wire.dir_connection_timeout in
  let agg_memo = Dirdoc.Aggregate.Memo.create () in
  let send ~src ~dst ~label m =
    let deadline =
      match m with
      | Ds_vote _ -> dir_deadline
      | Sig_push _ | Sig_request -> None
    in
    Sim.Net.send net ~src ~dst ~size:(msg_size m) ~label ?deadline m
  in
  let broadcast ~src ~label m =
    for dst = 0 to n - 1 do
      if dst <> src then send ~src ~dst ~label m
    done
  in
  let accept_vote node ~origin ~vote ~chain =
    let digest = Dirdoc.Vote.digest vote in
    if not (chain_valid env.keyring ~origin ~digest chain) then ()
    else begin
      (match node.accepted.(origin) with
      | Some existing when not (Dirdoc.Vote.equal existing vote) ->
          if not node.equivocated.(origin) then begin
            node.equivocated.(origin) <- true;
            log ~node:node.id Sim.Trace.Warn
              "Detected equivocation by authority %d; excluding its vote." origin
          end
      | Some _ -> ()
      | None -> node.accepted.(origin) <- Some vote);
      (match node.accepted.(origin) with
      | Some existing when Dirdoc.Vote.equal existing vote ->
          let before = Hashtbl.length node.confirmations.(origin) in
          List.iter
            (fun (s : Signature.t) ->
              Hashtbl.replace node.confirmations.(origin) s.Signature.signer ())
            chain;
          if before < 2 && Hashtbl.length node.confirmations.(origin) >= 2 then
            node.last_vote_at <- now ()
      | _ -> ());
      (* Dolev-Strong echo: forward each accepted vote once, while the
         dissemination rounds are still open. *)
      if (not node.echoed.(origin)) && now () < 2. *. round_seconds
         && not node.equivocated.(origin)
      then begin
        node.echoed.(origin) <- true;
        let own =
          Signature.sign env.keyring ~signer:node.id (chain_payload ~origin digest)
        in
        broadcast ~src:node.id ~label:lbl_ds_echo
          (Ds_vote { origin; vote; chain = chain @ [ own ] })
      end
    end
  in
  Sim.Net.set_handler net (fun ~dst ~src msg ->
      let node = nodes.(dst) in
      if Runenv.awake env dst ~now:(now ()) then
        match msg with
        | Ds_vote { origin; vote; chain } ->
            if now () <= 2. *. round_seconds then accept_vote node ~origin ~vote ~chain
        | Sig_push { digest; signature } ->
            if now () <= 4. *. round_seconds then
              Siground.store node.sig_round ~now:(now ()) ~digest signature
        | Sig_request -> (
            match (Siground.consensus node.sig_round, Siground.my_signature node.sig_round) with
            | Some c, Some signature ->
                send ~src:dst ~dst:src ~label:lbl_sig_fetch
                  (Sig_push { digest = Dirdoc.Consensus.digest c; signature })
            | _ -> ()));
  (* Round 1-2: Dolev-Strong broadcast of every vote. -------------------- *)
  let broadcast_own_vote node =
    let id = node.id in
    node.accepted.(id) <- Some env.votes.(id);
    node.echoed.(id) <- true;
    let digest = Dirdoc.Vote.digest env.votes.(id) in
    let own =
      Signature.sign env.keyring ~signer:id (chain_payload ~origin:id digest)
    in
    broadcast ~src:id ~label:lbl_ds_vote
      (Ds_vote { origin = id; vote = env.votes.(id); chain = [ own ] })
  in
  Array.iter
    (fun node ->
      let id = node.id in
      ignore
        (Sim.Engine.schedule engine ~owner:id ~at:0. (fun () ->
             match env.behaviors.(id) with
             | Runenv.Silent -> ()
             | Runenv.Honest -> broadcast_own_vote node
             | Runenv.Crashed { start; stop } ->
                 if start > 0. then broadcast_own_vote node
                 else
                   (* Crashed through the vote instant: broadcast on
                      recovery; peers only accept it while the
                      dissemination rounds are still open. *)
                   ignore
                     (Sim.Engine.schedule engine ~at:stop (fun () ->
                          broadcast_own_vote node))
             | Runenv.Equivocating ->
                 node.accepted.(id) <- Some env.votes.(id);
                 node.echoed.(id) <- true;
                 let variant =
                   let v = env.votes.(id) in
                   let relays = Array.to_list v.Dirdoc.Vote.relays in
                   let trimmed = match relays with [] -> [] | _ :: rest -> rest in
                   Dirdoc.Vote.create ~authority:id
                     ~authority_fingerprint:v.Dirdoc.Vote.authority_fingerprint
                     ~nickname:v.Dirdoc.Vote.nickname ~published:v.Dirdoc.Vote.published
                     ~valid_after:v.Dirdoc.Vote.valid_after ~relays:trimmed
                 in
                 for dst = 0 to n - 1 do
                   if dst <> id then begin
                     let vote = if dst land 1 = 0 then env.votes.(id) else variant in
                     let digest = Dirdoc.Vote.digest vote in
                     let own =
                       Signature.sign env.keyring ~signer:id
                         (chain_payload ~origin:id digest)
                     in
                     send ~src:id ~dst ~label:lbl_ds_vote
                       (Ds_vote { origin = id; vote; chain = [ own ] })
                   end
                 done)))
    nodes;
  (* Round 3: aggregate accepted votes, sign, push. ----------------------- *)
  Array.iter
    (fun node ->
      ignore
        (Sim.Engine.schedule engine ~owner:node.id ~at:(2. *. round_seconds)
           (fun () ->
             if not (Runenv.awake env node.id ~now:(now ())) then ()
             else begin
               let held =
                 List.filter_map
                   (fun j -> if committed node ~origin:j then node.accepted.(j) else None)
                   (List.init n Fun.id)
               in
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
                 broadcast ~src:node.id ~label:lbl_sig
                   (Sig_push { digest = Dirdoc.Consensus.digest c; signature })
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
             then broadcast ~src:node.id ~label:lbl_sig_request Sig_request)))
    nodes;
  Sim.Engine.run ~until:until_cap engine;
  (* Lock-step phase spans (see current_v3.ml): the Dolev-Strong
     dissemination takes the first two rounds here, committed votes
     standing in for held ones. *)
  let run_end = now () in
  Array.iter
    (fun node ->
      if Runenv.participates env.behaviors.(node.id) then begin
        let id = node.id in
        let committed_count =
          List.length
            (List.filter
               (fun j -> committed node ~origin:j)
               (List.init n Fun.id))
        in
        let consensus = Siground.consensus node.sig_round in
        let decided = Siground.decided_at node.sig_round in
        Runenv.Telemetry.span tel ~node:id ~phase:"vote-dissemination"
          ~start:0. ~stop:(2. *. round_seconds)
          ~complete:(committed_count >= need);
        if committed_count >= need then
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
          | Some d -> Some (node.last_vote_at +. (d -. (2. *. round_seconds)))
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
