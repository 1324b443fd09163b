module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

let name = "tendermint"

type polka = { polka_round : int; polka_digest : Digest32.t; polka_sigs : Signature.t list }

type 'v msg =
  | Proposal of { round : int; value : 'v; valid_round : int; evidence : polka option }
  | Prevote of { round : int; digest : Digest32.t option; signature : Signature.t }
  | Precommit of { round : int; digest : Digest32.t option; signature : Signature.t }
  | Decided of { round : int; value : 'v; precommits : Signature.t list }

type step = Propose_step | Prevote_step | Precommit_step

type 'v t = {
  keyring : Crypto.Keyring.t;
  n : int;
  id : int;
  quorum : int;
  view_timeout : Sim.Simtime.t;
  cb : ('v, 'v msg) Agreement.callbacks;
  mutable round : int;
  mutable step : step;
  mutable timer : Sim.Engine.handle option;
  mutable locked : (int * Digest32.t) option;
  mutable valid : (int * 'v) option;
  mutable decided : 'v option;
  mutable decided_broadcast : 'v msg option;
  mutable proposed_in : int;
  mutable prevoted_in : int;
  mutable precommitted_in : int;
  proposals : (int, 'v) Hashtbl.t;
  unlock_evidence : (int, int) Hashtbl.t;
      (* proposal round -> round of a verified polka justifying it *)
  prevotes : (int, (int, Digest32.t option) Hashtbl.t) Hashtbl.t;
  prevote_sigs : (int * string, Signature.t list ref) Hashtbl.t;
  precommits : (int, (int, Digest32.t option) Hashtbl.t) Hashtbl.t;
  precommit_sigs : (int * string, Signature.t list ref) Hashtbl.t;
  polkas : (int, polka) Hashtbl.t;
  future : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* round -> signers heard from *)
}

let create ~keyring ~n ~id ~view_timeout cb =
  if n < 4 then invalid_arg "Tendermint.create: need n >= 4";
  {
    keyring;
    n;
    id;
    quorum = Agreement.quorum ~n;
    view_timeout;
    cb;
    round = -1;
    step = Propose_step;
    timer = None;
    locked = None;
    valid = None;
    decided = None;
    decided_broadcast = None;
    proposed_in = -1;
    prevoted_in = -1;
    precommitted_in = -1;
    proposals = Hashtbl.create 16;
    unlock_evidence = Hashtbl.create 16;
    prevotes = Hashtbl.create 16;
    prevote_sigs = Hashtbl.create 16;
    precommits = Hashtbl.create 16;
    precommit_sigs = Hashtbl.create 16;
    polkas = Hashtbl.create 16;
    future = Hashtbl.create 16;
  }

let decided t = t.decided
let current_view t = t.round
let leader_of t round = Agreement.leader ~n:t.n ~view:round

let digest_tag = function None -> "nil" | Some d -> Digest32.raw d

let vote_payload ~kind ~round digest =
  Printf.sprintf "tm|%s|%d|%s" kind round (digest_tag digest)

let polka_valid t ~digest (p : polka) =
  Digest32.equal p.polka_digest digest
  && Signature.certifies t.keyring ~quorum:t.quorum
       (vote_payload ~kind:"prevote" ~round:p.polka_round (Some digest))
       p.polka_sigs

(* --- message sizes ------------------------------------------------------- *)

let polka_size = function
  | None -> 8
  | Some p -> Digest32.wire_size + 16 + (List.length p.polka_sigs * Signature.wire_size)

let msg_size ~value_size = function
  | Proposal { value; evidence; _ } ->
      Wire.control_bytes + value_size value + polka_size evidence
  | Prevote _ | Precommit _ -> Wire.control_bytes + Digest32.wire_size + Signature.wire_size
  | Decided { value; precommits; _ } ->
      Wire.control_bytes + value_size value
      + (List.length precommits * Signature.wire_size)

(* --- vote bookkeeping -------------------------------------------------------- *)

let broadcast t msg = Agreement.broadcast t.cb ~n:t.n msg

let append_sig table key signature =
  match Hashtbl.find_opt table key with
  | Some cell -> cell := signature :: !cell
  | None -> Hashtbl.add table key (ref [ signature ])

(* The digest (or nil) that gathered a quorum among [votes] for
   [round], if any. *)
let quorum_digest t votes round =
  let counts : (string, int * Digest32.t option) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ d ->
      let key = digest_tag d in
      let count, _ = Option.value (Hashtbl.find_opt counts key) ~default:(0, d) in
      Hashtbl.replace counts key (count + 1, d))
    (Agreement.signers votes round);
  Hashtbl.fold
    (fun _ (count, d) acc ->
      if count >= t.quorum then Some d else acc)
    counts None

(* --- state machine ----------------------------------------------------------- *)

let rec arm_timer t =
  Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
  t.timer <-
    Some (Sim.Engine.schedule_in t.cb.engine ~after:t.view_timeout (fun () -> on_timeout t))

and on_timeout t =
  if t.decided = None then
    match t.step with
    | Propose_step ->
        (* No acceptable proposal in time: prevote nil. *)
        send_prevote t ~round:t.round None;
        t.step <- Prevote_step;
        arm_timer t
    | Prevote_step ->
        send_precommit t ~round:t.round None;
        t.step <- Precommit_step;
        arm_timer t
    | Precommit_step -> enter_round t (t.round + 1)

and send_prevote t ~round digest =
  if t.prevoted_in < round then begin
    t.prevoted_in <- round;
    let signature =
      Signature.sign t.keyring ~signer:t.id (vote_payload ~kind:"prevote" ~round digest)
    in
    broadcast t (Prevote { round; digest; signature })
  end

and send_precommit t ~round digest =
  if t.precommitted_in < round then begin
    t.precommitted_in <- round;
    (match digest with Some d -> t.locked <- Some (round, d) | None -> ());
    let signature =
      Signature.sign t.keyring ~signer:t.id (vote_payload ~kind:"precommit" ~round digest)
    in
    broadcast t (Precommit { round; digest; signature })
  end

and enter_round t round =
  if round > t.round && t.decided = None then begin
    t.round <- round;
    t.step <- Propose_step;
    arm_timer t;
    t.cb.log (Printf.sprintf "entering round %d (proposer %d)" round (leader_of t round));
    t.cb.on_view ~view:round;
    try_propose t;
    (* A proposal for this round may have arrived before we did. *)
    maybe_prevote t;
    check_tallies t round
  end

and try_propose t =
  if t.decided = None && leader_of t t.round = t.id && t.proposed_in < t.round then begin
    let candidate =
      match t.valid with
      | Some (valid_round, value) ->
          Some (value, valid_round, Hashtbl.find_opt t.polkas valid_round)
      | None -> Option.map (fun v -> (v, -1, None)) (t.cb.proposal ())
    in
    match candidate with
    | None -> () (* not ready; notify_ready retries *)
    | Some (value, valid_round, evidence) ->
        t.proposed_in <- t.round;
        Hashtbl.replace t.proposals t.round value;
        (match evidence with
        | Some p -> Hashtbl.replace t.unlock_evidence t.round p.polka_round
        | None -> ());
        broadcast t (Proposal { round = t.round; value; valid_round; evidence })
  end

and maybe_prevote t =
  if t.decided = None && t.step = Propose_step && t.prevoted_in < t.round then
    match Hashtbl.find_opt t.proposals t.round with
    | None -> ()
    | Some value ->
        let digest = t.cb.value_digest value in
        let lock_ok =
          match t.locked with
          | None -> true
          | Some (locked_round, locked_digest) -> (
              Digest32.equal locked_digest digest
              ||
              match Hashtbl.find_opt t.unlock_evidence t.round with
              | Some evidence_round -> evidence_round >= locked_round
              | None -> false)
        in
        let vote = if t.cb.validate value && lock_ok then Some digest else None in
        send_prevote t ~round:t.round vote;
        t.step <- Prevote_step;
        arm_timer t

and decide_once t ~round value precommit_sigs =
  if t.decided = None then begin
    t.decided <- Some value;
    Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
    t.timer <- None;
    let msg = Decided { round; value; precommits = precommit_sigs } in
    t.decided_broadcast <- Some msg;
    t.cb.log (Printf.sprintf "decided in round %d" round);
    broadcast t msg;
    t.cb.decide ~view:round value
  end

and check_tallies t round =
  if t.decided = None then begin
    (* Polka? *)
    (match quorum_digest t t.prevotes round with
    | Some (Some d) ->
        let sigs =
          match Hashtbl.find_opt t.prevote_sigs (round, Digest32.raw d) with
          | Some cell -> !cell
          | None -> []
        in
        if not (Hashtbl.mem t.polkas round) then
          Hashtbl.replace t.polkas round
            { polka_round = round; polka_digest = d; polka_sigs = sigs };
        (match Hashtbl.find_opt t.proposals round with
        | Some value when Digest32.equal (t.cb.value_digest value) d ->
            (match t.valid with
            | Some (vr, _) when vr >= round -> ()
            | _ -> t.valid <- Some (round, value))
        | _ -> ());
        if round = t.round && t.step <> Precommit_step then begin
          send_precommit t ~round (Some d);
          t.step <- Precommit_step;
          arm_timer t
        end
    | Some None ->
        if round = t.round && t.step = Prevote_step then begin
          send_precommit t ~round None;
          t.step <- Precommit_step;
          arm_timer t
        end
    | None -> ());
    (* Decision or round change? *)
    match quorum_digest t t.precommits round with
    | Some (Some d) -> (
        let value =
          match Hashtbl.find_opt t.proposals round with
          | Some v when Digest32.equal (t.cb.value_digest v) d -> Some v
          | _ -> (
              match t.valid with
              | Some (_, v) when Digest32.equal (t.cb.value_digest v) d -> Some v
              | _ -> None)
        in
        match value with
        | Some v ->
            let sigs =
              match Hashtbl.find_opt t.precommit_sigs (round, Digest32.raw d) with
              | Some cell -> !cell
              | None -> []
            in
            decide_once t ~round v sigs
        | None -> () (* value unknown; a Decided broadcast will carry it *))
    | Some None -> if round = t.round then enter_round t (round + 1)
    | None -> ()
  end

(* --- handlers ----------------------------------------------------------------- *)

let help_straggler t ~src =
  match t.decided_broadcast with
  | Some msg -> t.cb.send ~dst:src msg
  | None -> ()

let note_future t ~src ~round =
  if round > t.round then begin
    let signers = Agreement.signers t.future round in
    Hashtbl.replace signers src ();
    if Hashtbl.length signers > Agreement.fault_bound ~n:t.n then enter_round t round
  end

let on_proposal t ~src ~round ~value ~valid_round ~evidence =
  if t.decided <> None then help_straggler t ~src
  else if src = leader_of t round && round >= t.round
          && not (Hashtbl.mem t.proposals round)
  then begin
    let digest = t.cb.value_digest value in
    let evidence_ok =
      valid_round < 0
      || (match evidence with
         | Some p -> p.polka_round = valid_round && polka_valid t ~digest p
         | None -> false)
    in
    if evidence_ok then begin
      Hashtbl.replace t.proposals round value;
      if valid_round >= 0 then Hashtbl.replace t.unlock_evidence round valid_round;
      if round > t.round then enter_round t round else maybe_prevote t
    end
  end

let on_vote t ~src ~kind ~round ~digest ~signature =
  let payload = vote_payload ~kind ~round digest in
  if
    signature.Signature.signer = src
    && Signature.verify t.keyring signature payload
  then
    if t.decided <> None then help_straggler t ~src
    else begin
      let votes, sigs =
        match kind with
        | "prevote" -> (t.prevotes, t.prevote_sigs)
        | _ -> (t.precommits, t.precommit_sigs)
      in
      let per = Agreement.signers votes round in
      if not (Hashtbl.mem per src) then begin
        Hashtbl.replace per src digest;
        (match digest with
        | Some d -> append_sig sigs (round, Digest32.raw d) signature
        | None -> ());
        note_future t ~src ~round;
        check_tallies t round
      end
    end

let on_decided t ~round ~value ~precommits =
  if t.decided = None then begin
    let payload = vote_payload ~kind:"precommit" ~round (Some (t.cb.value_digest value)) in
    if Signature.certifies t.keyring ~quorum:t.quorum payload precommits && t.cb.validate value
    then decide_once t ~round value precommits
  end

let handle t ~src msg =
  match msg with
  | Proposal { round; value; valid_round; evidence } ->
      on_proposal t ~src ~round ~value ~valid_round ~evidence
  | Prevote { round; digest; signature } ->
      on_vote t ~src ~kind:"prevote" ~round ~digest ~signature
  | Precommit { round; digest; signature } ->
      on_vote t ~src ~kind:"precommit" ~round ~digest ~signature
  | Decided { round; value; precommits } -> on_decided t ~round ~value ~precommits

let start t = enter_round t 0
let notify_ready t = try_propose t
