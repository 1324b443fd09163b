module Sim = Tor_sim
module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

let name = "pbft"

(* A prepared certificate: 2f+1 prepare signatures on (view, digest),
   together with the value itself so a new primary can re-propose. *)
type 'v certificate = {
  cert_view : int;
  cert_digest : Digest32.t;
  cert_sigs : Signature.t list;
  cert_value : 'v;
}

type 'v msg =
  | Pre_prepare of { view : int; value : 'v }
  | Prepare of { view : int; digest : Digest32.t; signature : Signature.t }
  | Commit of { view : int; digest : Digest32.t; signature : Signature.t }
  | View_change of { view : int; certificate : 'v certificate option; signature : Signature.t }
  | Decision of { view : int; value : 'v; commits : Signature.t list }

type 'v t = {
  keyring : Crypto.Keyring.t;
  n : int;
  id : int;
  quorum : int;
  view_timeout : Sim.Simtime.t;
  cb : ('v, 'v msg) Agreement.callbacks;
  mutable view : int;
  mutable timer : Sim.Engine.handle option;
  mutable proposed_in : int;
  mutable prepared_in : int;    (* last view we sent a PREPARE in *)
  mutable committed_in : int;   (* last view we sent a COMMIT in *)
  mutable certificate : 'v certificate option; (* our lock *)
  mutable decided : 'v option;
  mutable decision_msg : 'v msg option;
  pre_prepares : (int, 'v) Hashtbl.t;
  prepares : (int * string, (int, Signature.t) Hashtbl.t) Hashtbl.t;
  commits : (int * string, (int, Signature.t) Hashtbl.t) Hashtbl.t;
  view_changes : (int, (int, 'v certificate option) Hashtbl.t) Hashtbl.t;
}

let create ~keyring ~n ~id ~view_timeout cb =
  if n < 4 then invalid_arg "Pbft.create: need n >= 4";
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
    prepared_in = -1;
    committed_in = -1;
    certificate = None;
    decided = None;
    decision_msg = None;
    pre_prepares = Hashtbl.create 16;
    prepares = Hashtbl.create 16;
    commits = Hashtbl.create 16;
    view_changes = Hashtbl.create 16;
  }

let decided t = t.decided
let current_view t = t.view
let primary_of t view = Agreement.leader ~n:t.n ~view

let phase_payload ~kind ~view digest =
  Printf.sprintf "pbft|%s|%d|%s" kind view (Digest32.raw digest)

let view_change_payload ~view = Printf.sprintf "pbft|view-change|%d" view

let certificate_valid t (c : 'v certificate) ~digest_of =
  Digest32.equal c.cert_digest (digest_of c.cert_value)
  && Signature.certifies t.keyring ~quorum:t.quorum
       (phase_payload ~kind:"prepare" ~view:c.cert_view c.cert_digest)
       c.cert_sigs

(* --- message sizes ------------------------------------------------------- *)

let msg_size ~value_size = function
  | Pre_prepare { value; _ } -> Wire.control_bytes + value_size value
  | Prepare _ | Commit _ -> Wire.control_bytes + Digest32.wire_size + Signature.wire_size
  | View_change { certificate; _ } ->
      Wire.control_bytes + Signature.wire_size
      + (match certificate with
        | None -> 8
        | Some c ->
            Digest32.wire_size + value_size c.cert_value
            + (List.length c.cert_sigs * Signature.wire_size))
  | Decision { value; commits; _ } ->
      Wire.control_bytes + value_size value
      + (List.length commits * Signature.wire_size)

(* --- plumbing ----------------------------------------------------------------- *)

let broadcast t msg = Agreement.broadcast t.cb ~n:t.n msg

let sigs_of per = Hashtbl.fold (fun _ s acc -> s :: acc) per []

(* --- state machine --------------------------------------------------------------- *)

let rec arm_timer t =
  Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
  t.timer <-
    Some (Sim.Engine.schedule_in t.cb.engine ~after:t.view_timeout (fun () -> on_timeout t))

and on_timeout t =
  if t.decided = None then begin
    (* Ask for a view change; keep re-asking while stuck. *)
    let signature =
      Signature.sign t.keyring ~signer:t.id (view_change_payload ~view:(t.view + 1))
    in
    broadcast t
      (View_change { view = t.view + 1; certificate = t.certificate; signature });
    arm_timer t
  end

and enter_view t view =
  if view > t.view && t.decided = None then begin
    t.view <- view;
    arm_timer t;
    t.cb.log (Printf.sprintf "entering view %d (primary %d)" view (primary_of t view));
    t.cb.on_view ~view;
    try_propose t
  end

and try_propose t =
  if t.decided = None && primary_of t t.view = t.id && t.proposed_in < t.view then begin
    (* A primary holding (or having received) a prepared certificate
       must re-propose its value. *)
    let carried =
      Hashtbl.fold
        (fun _ per acc ->
          Hashtbl.fold
            (fun _ cert acc ->
              match (cert, acc) with
              | Some (c : 'v certificate), Some (best : 'v certificate) ->
                  if c.cert_view > best.cert_view then Some c else acc
              | Some c, None -> Some c
              | None, _ -> acc)
            per acc)
        t.view_changes
        (Option.map Fun.id t.certificate)
    in
    let value =
      match carried with
      | Some c -> Some c.cert_value
      | None -> t.cb.proposal ()
    in
    match value with
    | None -> ()
    | Some value ->
        t.proposed_in <- t.view;
        broadcast t (Pre_prepare { view = t.view; value })
  end

and on_pre_prepare t ~src ~view ~value =
  if t.decided <> None then help_straggler t ~src
  else if src = primary_of t view && view >= t.view
          && not (Hashtbl.mem t.pre_prepares view)
          && t.cb.validate value
  then begin
    let digest = t.cb.value_digest value in
    (* Lock rule: once prepared on a value, only accept the same value
       again (unless a certificate from a later view justified it —
       carried pre-prepares always re-propose the certified value). *)
    let lock_ok =
      match t.certificate with
      | None -> true
      | Some c -> Digest32.equal c.cert_digest digest || view > c.cert_view
    in
    if lock_ok then begin
      Hashtbl.replace t.pre_prepares view value;
      if view > t.view then enter_view t view;
      if t.prepared_in < view then begin
        t.prepared_in <- view;
        let signature =
          Signature.sign t.keyring ~signer:t.id
            (phase_payload ~kind:"prepare" ~view digest)
        in
        broadcast t (Prepare { view; digest; signature })
      end
    end
  end

and on_prepare t ~src ~view ~digest ~signature =
  let payload = phase_payload ~kind:"prepare" ~view digest in
  if
    signature.Signature.signer = src
    && Signature.verify t.keyring signature payload
  then
    if t.decided <> None then help_straggler t ~src
    else begin
      let per = Agreement.signers t.prepares (view, Digest32.raw digest) in
      if not (Hashtbl.mem per src) then begin
        Hashtbl.replace per src signature;
        if Hashtbl.length per >= t.quorum && t.committed_in < view then begin
          match Hashtbl.find_opt t.pre_prepares view with
          | Some value when Digest32.equal (t.cb.value_digest value) digest ->
              t.committed_in <- view;
              t.certificate <-
                Some
                  {
                    cert_view = view;
                    cert_digest = digest;
                    cert_sigs = sigs_of per;
                    cert_value = value;
                  };
              let signature =
                Signature.sign t.keyring ~signer:t.id
                  (phase_payload ~kind:"commit" ~view digest)
              in
              broadcast t (Commit { view; digest; signature })
          | _ -> ()
        end
      end
    end

and on_commit t ~src ~view ~digest ~signature =
  let payload = phase_payload ~kind:"commit" ~view digest in
  if
    signature.Signature.signer = src
    && Signature.verify t.keyring signature payload
  then
    if t.decided <> None then help_straggler t ~src
    else begin
      let per = Agreement.signers t.commits (view, Digest32.raw digest) in
      if not (Hashtbl.mem per src) then begin
        Hashtbl.replace per src signature;
        if Hashtbl.length per >= t.quorum then
          match Hashtbl.find_opt t.pre_prepares view with
          | Some value when Digest32.equal (t.cb.value_digest value) digest ->
              decide_once t ~view value (sigs_of per)
          | _ -> (
              match t.certificate with
              | Some c when Digest32.equal c.cert_digest digest ->
                  decide_once t ~view c.cert_value (sigs_of per)
              | _ -> () (* value unknown; a Decision broadcast will carry it *))
      end
    end

and on_view_change t ~src ~view ~certificate ~signature =
  if
    Signature.verify t.keyring signature (view_change_payload ~view)
    && signature.Signature.signer = src
  then
    if t.decided <> None then help_straggler t ~src
    else begin
      let cert_ok =
        match certificate with
        | None -> true
        | Some c -> certificate_valid t c ~digest_of:t.cb.value_digest
      in
      if cert_ok && view > t.view then begin
        let per = Agreement.signers t.view_changes view in
        if not (Hashtbl.mem per src) then begin
          Hashtbl.replace per src certificate;
          (match certificate with
          | Some c -> (
              match t.certificate with
              | Some mine when mine.cert_view >= c.cert_view -> ()
              | _ -> t.certificate <- Some c)
          | None -> ());
          if Hashtbl.length per >= t.quorum then enter_view t view
        end
      end
    end

and decide_once t ~view value commits =
  if t.decided = None then begin
    t.decided <- Some value;
    Option.iter (Sim.Engine.cancel t.cb.engine) t.timer;
    t.timer <- None;
    let msg = Decision { view; value; commits } in
    t.decision_msg <- Some msg;
    t.cb.log (Printf.sprintf "decided in view %d" view);
    broadcast t msg;
    t.cb.decide ~view value
  end

and help_straggler t ~src =
  match t.decision_msg with Some msg -> t.cb.send ~dst:src msg | None -> ()

let on_decision t ~view ~value ~commits =
  if t.decided = None then begin
    let payload = phase_payload ~kind:"commit" ~view (t.cb.value_digest value) in
    if Signature.certifies t.keyring ~quorum:t.quorum payload commits && t.cb.validate value
    then decide_once t ~view value commits
  end

let handle t ~src msg =
  match msg with
  | Pre_prepare { view; value } -> on_pre_prepare t ~src ~view ~value
  | Prepare { view; digest; signature } -> on_prepare t ~src ~view ~digest ~signature
  | Commit { view; digest; signature } -> on_commit t ~src ~view ~digest ~signature
  | View_change { view; certificate; signature } ->
      on_view_change t ~src ~view ~certificate ~signature
  | Decision { view; value; commits } -> on_decision t ~view ~value ~commits

let start t = enter_view t 0
let notify_ready t = try_propose t
