module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

let name = "hotstuff"

type phase = One | Two

type qc = { view : int; digest : Digest32.t; phase : phase; sigs : Signature.t list }

type 'v msg =
  | Propose of { view : int; value : 'v; justify : qc option }
  | Vote of { view : int; phase : phase; digest : Digest32.t; signature : Signature.t }
  | Qc_announce of { qc : qc }
  | Commit of { qc : qc; value : 'v }
  | Timeout of {
      view : int;
      high_qc : qc option;
      value : 'v option;
      signature : Signature.t;
    }

type 'v t = {
  keyring : Crypto.Keyring.t;
  n : int;
  id : int;
  quorum : int;
  view_timeout : Sim.Simtime.t;
  cb : ('v, 'v msg) Agreement.callbacks;
  mutable view : int;
  mutable timer : Sim.Engine.handle option;
  mutable proposed_in : int; (* last view in which this node proposed, -1 if none *)
  mutable voted1 : int;      (* last view with a phase-One vote *)
  mutable voted2 : int;      (* last view with a phase-Two vote *)
  mutable locked : qc option;
  mutable high_qc : qc option;
  mutable high_value : 'v option; (* value matching high_qc *)
  mutable carry : ('v * qc) option; (* value the view's leader must re-propose *)
  mutable decided : 'v option;
  mutable decided_qc : qc option;
  proposals : (int, 'v) Hashtbl.t; (* view -> proposal value seen *)
  votes1 : (int, (int, Signature.t) Hashtbl.t) Hashtbl.t; (* view -> signer -> sig *)
  votes2 : (int, (int, Signature.t) Hashtbl.t) Hashtbl.t;
  timeouts : (int, (int, qc option * 'v option) Hashtbl.t) Hashtbl.t;
}

let create ~keyring ~n ~id ~view_timeout cb =
  if n < 4 then invalid_arg "Hotstuff.create: need n >= 4";
  {
    keyring;
    n;
    id;
    quorum = Agreement.quorum ~n;
    view_timeout;
    cb;
    view = -1;
    timer = None;
    proposed_in = -1;
    voted1 = -1;
    voted2 = -1;
    locked = None;
    high_qc = None;
    high_value = None;
    carry = None;
    decided = None;
    decided_qc = None;
    proposals = Hashtbl.create 16;
    votes1 = Hashtbl.create 16;
    votes2 = Hashtbl.create 16;
    timeouts = Hashtbl.create 16;
  }

let leader_of t view = Agreement.leader ~n:t.n ~view
let decided t = t.decided
let current_view t = t.view

(* --- signing payloads ------------------------------------------------- *)

let phase_tag = function One -> "one" | Two -> "two"

let vote_payload ~phase ~view digest =
  Printf.sprintf "hs|vote|%s|%d|%s" (phase_tag phase) view (Digest32.raw digest)

let timeout_payload ~view = Printf.sprintf "hs|timeout|%d" view

let qc_valid t (qc : qc) =
  Signature.certifies t.keyring ~quorum:t.quorum
    (vote_payload ~phase:qc.phase ~view:qc.view qc.digest)
    qc.sigs

let qc_view = function None -> -1 | Some (qc : qc) -> qc.view

(* --- message sizes ----------------------------------------------------- *)

let qc_size = function
  | None -> 8
  | Some (qc : qc) ->
      Digest32.wire_size + 16 + (List.length qc.sigs * Signature.wire_size)

let msg_size ~value_size = function
  | Propose { value; justify; _ } ->
      Wire.control_bytes + value_size value + qc_size justify
  | Vote _ -> Wire.control_bytes + Digest32.wire_size + Signature.wire_size
  | Qc_announce { qc } -> Wire.control_bytes + qc_size (Some qc)
  | Commit { qc; value } -> Wire.control_bytes + qc_size (Some qc) + value_size value
  | Timeout { high_qc; value; _ } ->
      Wire.control_bytes + Signature.wire_size + qc_size high_qc
      + (match value with None -> 0 | Some v -> value_size v)

(* --- view machinery ---------------------------------------------------- *)

let broadcast t msg = Agreement.broadcast t.cb ~n:t.n msg

let update_high_qc t (qc : qc) value =
  if qc.phase = One && qc.view > qc_view t.high_qc then begin
    t.high_qc <- Some qc;
    (match value with Some _ -> t.high_value <- value | None -> ());
    (* Two-phase rule: a phase-One QC is also the lock. *)
    if qc.view > qc_view t.locked then t.locked <- Some qc
  end

let rec enter_view t view =
  if view > t.view && t.decided = None then begin
    t.view <- view;
    Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
    t.timer <-
      Some (Sim.Engine.schedule_in t.cb.engine ~after:t.view_timeout (fun () -> on_timer t));
    t.cb.log (Printf.sprintf "entering view %d (leader %d)" view (leader_of t view));
    t.cb.on_view ~view;
    try_propose t
  end

and try_propose t =
  if t.decided = None && leader_of t t.view = t.id && t.proposed_in < t.view then begin
    let candidate =
      match t.carry with
      | Some (value, qc) -> Some (value, Some qc)
      | None -> (
          (* Prefer re-proposing our own highest QC'd value if any;
             otherwise use the dissemination input. *)
          match (t.high_qc, t.high_value) with
          | Some qc, Some value -> Some (value, Some qc)
          | _ -> Option.map (fun v -> (v, None)) (t.cb.proposal ()))
    in
    match candidate with
    | None -> () (* not ready; notify_ready will retry *)
    | Some (value, justify) ->
        t.proposed_in <- t.view;
        broadcast t (Propose { view = t.view; value; justify })
  end

and on_timer t =
  if t.decided = None then begin
    (* Re-broadcast the timeout for the current view and keep the timer
       running; receivers de-duplicate by signer. *)
    if t.view >= 0 then begin
      let signature =
        Signature.sign t.keyring ~signer:t.id (timeout_payload ~view:t.view)
      in
      broadcast t
        (Timeout { view = t.view; high_qc = t.high_qc; value = t.high_value; signature })
    end;
    t.timer <-
      Some (Sim.Engine.schedule_in t.cb.engine ~after:t.view_timeout (fun () -> on_timer t))
  end

(* --- handlers ----------------------------------------------------------- *)

let decide_once t ~view value qc =
  if t.decided = None then begin
    t.decided <- Some value;
    t.decided_qc <- Some qc;
    Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
    t.timer <- None;
    t.cb.log (Printf.sprintf "decided in view %d" view);
    t.cb.decide ~view value
  end

let on_propose t ~src ~view ~value ~justify =
  if view >= t.view && src = leader_of t view && t.decided = None then begin
    (match justify with
    | Some qc when not (qc_valid t qc) -> ()
    | justify ->
        if t.cb.validate value then begin
          let digest = t.cb.value_digest value in
          (* A justify QC must actually certify this value. *)
          let justify_ok =
            match justify with
            | None -> true
            | Some qc -> Digest32.equal qc.digest digest && qc.phase = One
          in
          let lock_ok =
            match t.locked with
            | None -> true
            | Some lock ->
                Digest32.equal lock.digest digest || qc_view justify > lock.view
          in
          if justify_ok && lock_ok then begin
            enter_view t view;
            Hashtbl.replace t.proposals view value;
            (match justify with
            | Some qc -> update_high_qc t qc (Some value)
            | None -> ());
            if t.voted1 < view then begin
              t.voted1 <- view;
              let signature =
                Signature.sign t.keyring ~signer:t.id
                  (vote_payload ~phase:One ~view digest)
              in
              t.cb.send ~dst:(leader_of t view)
                (Vote { view; phase = One; digest; signature })
            end
          end
        end)
  end

let on_vote t ~view ~phase ~digest ~signature =
  let payload = vote_payload ~phase ~view digest in
  if
    view >= 0 && leader_of t view = t.id
    && Signature.verify t.keyring signature payload
  then begin
    let per_view =
      Agreement.signers (match phase with One -> t.votes1 | Two -> t.votes2) view
    in
    let signer = signature.Signature.signer in
    if not (Hashtbl.mem per_view signer) then begin
      Hashtbl.replace per_view signer signature;
      if Hashtbl.length per_view = t.quorum then begin
        let sigs = Hashtbl.fold (fun _ s acc -> s :: acc) per_view [] in
        let qc = { view; digest; phase; sigs } in
        match phase with
        | One -> broadcast t (Qc_announce { qc })
        | Two -> (
            match Hashtbl.find_opt t.proposals view with
            | Some value -> broadcast t (Commit { qc; value })
            | None -> ())
      end
    end
  end

let on_qc_announce t ~qc =
  if qc_valid t qc && qc.phase = One && t.decided = None then begin
    let value = Hashtbl.find_opt t.proposals qc.view in
    update_high_qc t qc value;
    if qc.view = t.view && t.voted2 < qc.view then begin
      t.voted2 <- qc.view;
      let signature =
        Signature.sign t.keyring ~signer:t.id (vote_payload ~phase:Two ~view:qc.view qc.digest)
      in
      t.cb.send ~dst:(leader_of t qc.view)
        (Vote { view = qc.view; phase = Two; digest = qc.digest; signature })
    end
  end

let on_commit t ~qc ~value =
  if
    qc.phase = Two && qc_valid t qc
    && Digest32.equal (t.cb.value_digest value) qc.digest
    && t.cb.validate value
  then decide_once t ~view:qc.view value qc

let on_timeout t ~src ~view ~high_qc ~value ~signature =
  if Signature.verify t.keyring signature (timeout_payload ~view) && signature.Signature.signer = src
  then begin
    (match t.decided with
    | Some decided_value ->
        (* Help a straggler: re-send the decision certificate. *)
        (match t.decided_qc with
        | Some qc -> t.cb.send ~dst:src (Commit { qc; value = decided_value })
        | None -> ())
    | None ->
        (match high_qc with
        | Some qc when qc_valid t qc -> update_high_qc t qc value
        | _ -> ());
        let per_view = Agreement.signers t.timeouts view in
        if not (Hashtbl.mem per_view src) then begin
          Hashtbl.replace per_view src (high_qc, value);
          (* Adopt higher views so the pacemaker converges after GST. *)
          if view > t.view then enter_view t view;
          if Hashtbl.length per_view >= t.quorum && view >= t.view then begin
            (* Timeout certificate: advance, carrying the highest QC'd
               value for the next leader to re-propose. *)
            let best =
              Hashtbl.fold
                (fun _ (qc, v) acc ->
                  match (qc, v) with
                  | Some (qc : qc), Some v when qc.phase = One && qc_valid t qc -> (
                      match acc with
                      | Some (_, (best_qc : qc)) when best_qc.view >= qc.view -> acc
                      | _ -> Some (v, qc))
                  | _ -> acc)
                per_view None
            in
            (match (best, t.high_qc, t.high_value) with
            | None, Some qc, Some v when qc.phase = One -> t.carry <- Some (v, qc)
            | _ -> t.carry <- best);
            enter_view t (view + 1)
          end
        end)
  end

let handle t ~src msg =
  match msg with
  | Propose { view; value; justify } -> on_propose t ~src ~view ~value ~justify
  | Vote { view; phase; digest; signature } -> on_vote t ~view ~phase ~digest ~signature
  | Qc_announce { qc } -> on_qc_announce t ~qc
  | Commit { qc; value } -> on_commit t ~qc ~value
  | Timeout { view; high_qc; value; signature } ->
      on_timeout t ~src ~view ~high_qc ~value ~signature

let start t = enter_view t 0
let notify_ready t = try_propose t
