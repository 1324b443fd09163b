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
  mutable last_vote_at : Sim.Simtime.t;
  mutable replied : bool array; (* peer answered my fetch round *)
}

(* The simulated addresses Shadow assigns in the paper's Figure 1 log. *)
let address_of id = Printf.sprintf "100.0.0.%d:8080" (id + 1)

(* Hoisted so the hot send path does not rebuild the option. *)
let dir_deadline = Some Wire.dir_connection_timeout

module D = Driver.Make (struct
  type nonrec msg = msg

  let name = name

  let msg_size = function
    | Vote_push v | Vote_reply v ->
        Wire.vote_push_bytes ~n_relays:(Dirdoc.Vote.n_relays v)
    | Vote_request _ -> Wire.request_bytes
    | Sig_push _ -> Wire.signature_bytes + Wire.control_bytes
    | Sig_request -> Wire.request_bytes

  (* Vote-sized transfers ride Tor's directory connections and give up
     after the client timeout; control messages are too small to
     stall. *)
  let deadline = function
    | Vote_push _ | Vote_reply _ -> dir_deadline
    | Vote_request _ | Sig_push _ | Sig_request -> None

  let sig_push digest signature = Sig_push { digest; signature }
  let sig_request = Sig_request
  let sig_label = "sig"
  let sig_answer_label = "sig-fetch"
end)

let run (env : Runenv.t) =
  let n = env.n in
  let r = D.setup env ~round_seconds ~labels:[| "vote"; "vote-request"; "vote-fetch" |] in
  let lbl_vote = r.labels.(0) in
  let lbl_vote_request = r.labels.(1) in
  let lbl_vote_fetch = r.labels.(2) in
  let nodes =
    Array.init n (fun id ->
        { id; votes = Array.make n None; last_vote_at = 0.; replied = Array.make n false })
  in
  let now () = D.now r in
  let log ?node level fmt = Sim.Trace.logf r.trace ~time:(now ()) ?node level fmt in
  let store_vote node (v : Dirdoc.Vote.t) =
    let src = v.Dirdoc.Vote.authority in
    if src >= 0 && src < n && node.votes.(src) = None && now () <= 2. *. round_seconds
    then begin
      node.votes.(src) <- Some v;
      node.last_vote_at <- now ()
    end
  in
  D.handle r (fun ~dst ~src msg ->
      let node = nodes.(dst) in
      match msg with
      | Vote_push v | Vote_reply v ->
          node.replied.(src) <- true;
          store_vote node v
      | Vote_request { wanted } ->
          List.iter
            (fun j ->
              match node.votes.(j) with
              | Some v -> D.send r ~src:dst ~dst:src ~label:lbl_vote_fetch (Vote_reply v)
              | None -> ())
            wanted
      | Sig_push { digest; signature } -> D.store_signature r ~node:dst digest signature
      | Sig_request -> D.answer_signature_request r ~node:dst ~src);
  (* Round 1: push votes.  A node down at vote time pushes on recovery;
     peers discard the vote if the voting window has closed
     (store_vote's cutoff), exactly like a late real authority. *)
  D.start r (fun id variant ->
      let node = nodes.(id) in
      let own = env.votes.(id) in
      node.votes.(id) <- Some own;
      match variant with
      | None ->
          node.last_vote_at <- now ();
          log ~node:id Sim.Trace.Notice "Time to vote.";
          D.broadcast r ~src:id ~label:lbl_vote (Vote_push own)
      | Some variant ->
          D.split_broadcast r ~src:id ~label:lbl_vote ~even:(Vote_push own)
            ~odd:(Vote_push variant));
  (* Round 2: fetch missing votes (with one mid-round retry). ------------ *)
  let fetch_missing node ~retry =
    if not (D.awake r node.id) then ()
    else begin
      let missing =
        List.filter (fun j -> node.votes.(j) = None) (List.init n Fun.id)
      in
      if missing <> [] then begin
        if not retry then begin
          log ~node:node.id Sim.Trace.Notice
            "Time to fetch any votes that we're missing.";
          let fingerprints =
            String.concat "\n "
              (List.map (Crypto.Keyring.fingerprint env.keyring) missing)
          in
          log ~node:node.id Sim.Trace.Notice
            "We're missing votes from %d authorities (%s). Asking every other authority for a copy."
            (List.length missing) fingerprints
        end;
        node.replied <- Array.make n false;
        D.broadcast r ~src:node.id ~label:lbl_vote_request
          (Vote_request { wanted = missing });
        ignore
          (Sim.Engine.schedule_in r.engine ~after:fetch_timeout (fun () ->
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
        (Sim.Engine.schedule r.engine ~owner:node.id ~at:round_seconds (fun () ->
             fetch_missing node ~retry:false));
      let retries = int_of_float ((round_seconds -. retry_interval) /. retry_interval) in
      for k = 1 to retries do
        ignore
          (Sim.Engine.schedule r.engine ~owner:node.id
             ~at:(round_seconds +. (float_of_int k *. retry_interval))
             (fun () -> fetch_missing node ~retry:true))
      done)
    nodes;
  (* Rounds 3-4: aggregate the held votes, sign, exchange signatures. *)
  let held id = List.filter_map Fun.id (Array.to_list nodes.(id).votes) in
  D.lockstep r
    ~held:(fun id ->
      log ~node:id Sim.Trace.Notice "Time to compute a consensus.";
      held id)
    ~vote_spans:(fun id ->
      let enough = List.length (held id) >= r.need in
      D.span r ~node:id ~phase:"vote-dissemination" ~start:0. ~stop:round_seconds;
      D.span r ~node:id ~phase:"vote-collection" ~start:round_seconds
        ~stop:(2. *. round_seconds) ~complete:enough;
      enough)
    ~last_vote_at:(fun id -> nodes.(id).last_vote_at)
