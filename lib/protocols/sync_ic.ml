module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

let name = "synchronous"
let round_seconds = 150.

type msg =
  | Ds_vote of { origin : int; vote : Dirdoc.Vote.t; chain : Signature.t list }

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
  mutable last_vote_at : Sim.Simtime.t;
}

let committed node ~origin =
  node.accepted.(origin) <> None
  && (origin = node.id || Hashtbl.length node.confirmations.(origin) >= 2)
  && not node.equivocated.(origin)

let dir_deadline = Some Wire.dir_connection_timeout

module D = Driver.Make (struct
  type nonrec msg = msg

  let name = name

  let msg_size (Ds_vote { vote; chain; _ }) =
    Wire.vote_push_bytes ~n_relays:(Dirdoc.Vote.n_relays vote)
    + (List.length chain * Wire.signature_bytes)

  let deadline (Ds_vote _) = dir_deadline
  let sig_label = "sig"
  let sig_answer_label = "sig-fetch"
end)

let chain_payload ~origin digest =
  Printf.sprintf "ds|%d|%s" origin (Digest32.raw digest)

(* A chain is valid when the first signer is the origin, signers are
   distinct, and every signature covers the origin/digest payload. *)
let chain_valid keyring ~origin ~digest chain =
  (match chain with first :: _ -> first.Signature.signer = origin | [] -> false)
  && Signature.certifies keyring ~quorum:1 (chain_payload ~origin digest) chain

let run (env : Runenv.t) =
  let n = env.n in
  let r = D.setup env ~round_seconds ~labels:[| "ds-vote"; "ds-echo" |] in
  let lbl_ds_vote = (D.labels r).(0) in
  let lbl_ds_echo = (D.labels r).(1) in
  let nodes =
    Array.init n (fun id ->
        {
          id;
          accepted = Array.make n None;
          confirmations = Array.init n (fun _ -> Hashtbl.create 4);
          equivocated = Array.make n false;
          echoed = Array.make n false;
          last_vote_at = 0.;
        })
  in
  let now () = D.now r in
  let accept_vote node ~origin ~vote ~chain =
    let digest = Dirdoc.Vote.digest vote in
    if not (chain_valid env.keyring ~origin ~digest chain) then ()
    else begin
      (match node.accepted.(origin) with
      | Some existing when not (Dirdoc.Vote.equal existing vote) ->
          if not node.equivocated.(origin) then begin
            node.equivocated.(origin) <- true;
            D.log r ~node:node.id Sim.Trace.Warn
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
        D.broadcast r ~src:node.id ~label:lbl_ds_echo
          (Ds_vote { origin; vote; chain = chain @ [ own ] })
      end
    end
  in
  D.handle r (fun ~dst ~src:_ (Ds_vote { origin; vote; chain }) ->
      if now () <= 2. *. round_seconds then accept_vote nodes.(dst) ~origin ~vote ~chain);
  (* Rounds 1-2: Dolev-Strong broadcast of every vote.  A node crashed
     through the vote instant broadcasts on recovery; peers only accept
     it while the dissemination rounds are still open. *)
  let signed id vote =
    let own =
      Signature.sign env.keyring ~signer:id
        (chain_payload ~origin:id (Dirdoc.Vote.digest vote))
    in
    Ds_vote { origin = id; vote; chain = [ own ] }
  in
  D.start r (fun id variant ->
      let node = nodes.(id) in
      node.accepted.(id) <- Some env.votes.(id);
      node.echoed.(id) <- true;
      match variant with
      | None -> D.broadcast r ~src:id ~label:lbl_ds_vote (signed id env.votes.(id))
      | Some variant ->
          D.split_broadcast r ~src:id ~label:lbl_ds_vote ~even:(signed id env.votes.(id))
            ~odd:(signed id variant));
  (* Rounds 3-4 over the committed votes.  The Dolev-Strong
     dissemination spans the first two rounds. *)
  let held id =
    List.filter_map
      (fun j -> if committed nodes.(id) ~origin:j then nodes.(id).accepted.(j) else None)
      (List.init n Fun.id)
  in
  D.lockstep r ~held
    ~vote_spans:(fun id ->
      let enough = List.length (held id) >= D.need r in
      D.span r ~node:id ~phase:"vote-dissemination" ~start:0. ~stop:(2. *. round_seconds)
        ~complete:enough;
      enough)
    ~last_vote_at:(fun id -> nodes.(id).last_vote_at)
