module Signature = Crypto.Signature
module Digest32 = Crypto.Digest32

type entry = {
  digest : Digest32.t option;
  sender_sig : Signature.t option;
  proposer_sig : Signature.t;
}

type proposal = { proposer : int; entries : entry array }

type entry_proof =
  | Present of Signature.t * Signature.t list
  | Equivocation of (Digest32.t * Signature.t) * (Digest32.t * Signature.t)
  | Absent of Signature.t list

type value = {
  vector : Digest32.t option array;
  proofs : entry_proof array;
}

let doc_payload ~sender digest =
  match digest with
  | Some d -> Printf.sprintf "doc|%d|%s" sender (Digest32.raw d)
  | None -> Printf.sprintf "doc|%d|bot" sender

let sign_document keyring ~sender digest =
  Signature.sign keyring ~signer:sender (doc_payload ~sender (Some digest))

let make_proposal keyring ~proposer ~digests =
  let entries =
    Array.mapi
      (fun j slot ->
        match slot with
        | Some (digest, sender_sig) ->
            {
              digest = Some digest;
              sender_sig = Some sender_sig;
              proposer_sig =
                Signature.sign keyring ~signer:proposer (doc_payload ~sender:j (Some digest));
            }
        | None ->
            {
              digest = None;
              sender_sig = None;
              proposer_sig =
                Signature.sign keyring ~signer:proposer (doc_payload ~sender:j None);
            })
      digests
  in
  { proposer; entries }

let entry_valid keyring ~j ~proposer e =
  let payload = doc_payload ~sender:j e.digest in
  e.proposer_sig.Signature.signer = proposer
  && Signature.verify keyring e.proposer_sig payload
  &&
  match (e.digest, e.sender_sig) with
  | Some _, Some s -> s.Signature.signer = j && Signature.verify keyring s payload
  | None, None -> true
  | Some _, None | None, Some _ -> false

let proposal_valid keyring ~n ~f p =
  Array.length p.entries = n
  && p.proposer >= 0 && p.proposer < n
  && (let non_bot =
        Array.fold_left
          (fun acc e -> match e.digest with Some _ -> acc + 1 | None -> acc)
          0 p.entries
      in
      non_bot >= n - f)
  &&
  let ok = ref true in
  Array.iteri
    (fun j e -> if not (entry_valid keyring ~j ~proposer:p.proposer e) then ok := false)
    p.entries;
  !ok

module Collector = struct
  type t = {
    keyring : Crypto.Keyring.t;
    n : int;
    f : int;
    proposals : (int, proposal) Hashtbl.t; (* proposer -> latest proposal *)
  }

  let create keyring ~n ~f = { keyring; n; f; proposals = Hashtbl.create 16 }

  let add t p =
    if proposal_valid t.keyring ~n:t.n ~f:t.f p then
      Hashtbl.replace t.proposals p.proposer p

  let count t = Hashtbl.length t.proposals

  (* Resolve entry [j] across the held proposals, per the rules of
     Section 5.2.1: equivocation first (two sender-signed digests
     conflict), then (f+1) agreement on a digest, then (f+1) ⊥. *)
  let resolve t j =
    let by_digest : (string, Signature.t * Signature.t list) Hashtbl.t =
      Hashtbl.create 8
    in
    let bot_sigs = ref [] in
    Hashtbl.iter
      (fun _ p ->
        let e = p.entries.(j) in
        match (e.digest, e.sender_sig) with
        | Some d, Some sender_sig ->
            let key = Digest32.raw d in
            let _, proposers =
              Option.value (Hashtbl.find_opt by_digest key) ~default:(sender_sig, [])
            in
            Hashtbl.replace by_digest key (sender_sig, e.proposer_sig :: proposers)
        | None, _ -> bot_sigs := e.proposer_sig :: !bot_sigs
        | Some _, None -> ())
      t.proposals;
    let digests =
      Hashtbl.fold (fun key (sender_sig, ps) acc -> (key, sender_sig, ps) :: acc) by_digest []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    in
    match digests with
    | (d1, s1, _) :: (d2, s2, _) :: _ ->
        (* Rule b: the sender signed two different digests. *)
        Some (None, Equivocation ((Digest32.of_raw d1, s1), (Digest32.of_raw d2, s2)))
    | [ (d, sender_sig, proposers) ] when List.length proposers >= t.f + 1 ->
        let sigs = List.filteri (fun i _ -> i <= t.f) proposers in
        Some (Some (Digest32.of_raw d), Present (sender_sig, sigs))
    | _ when List.length !bot_sigs >= t.f + 1 ->
        let sigs = List.filteri (fun i _ -> i <= t.f) !bot_sigs in
        Some (None, Absent sigs)
    | _ -> None

  let build t =
    if count t < t.n - t.f then None
    else begin
      let vector = Array.make t.n None in
      let proofs = Array.make t.n None in
      for j = 0 to t.n - 1 do
        match resolve t j with
        | Some (digest, proof) ->
            vector.(j) <- digest;
            proofs.(j) <- Some proof
        | None -> ()
      done;
      let resolved = Array.for_all Option.is_some proofs in
      let non_bot =
        Array.fold_left
          (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
          0 vector
      in
      if resolved && non_bot >= t.n - t.f then
        Some { vector; proofs = Array.map Option.get proofs }
      else None
    end
end

let proof_valid keyring ~f ~j ~digest proof =
  match (digest, proof) with
  | Some d, Present (sender_sig, proposer_sigs) ->
      let payload = doc_payload ~sender:j (Some d) in
      sender_sig.Signature.signer = j
      && Signature.verify keyring sender_sig payload
      && Signature.certifies keyring ~quorum:(f + 1) payload proposer_sigs
  | None, Equivocation ((d1, s1), (d2, s2)) ->
      (not (Digest32.equal d1 d2))
      && s1.Signature.signer = j && s2.Signature.signer = j
      && Signature.verify keyring s1 (doc_payload ~sender:j (Some d1))
      && Signature.verify keyring s2 (doc_payload ~sender:j (Some d2))
  | None, Absent sigs ->
      Signature.certifies keyring ~quorum:(f + 1) (doc_payload ~sender:j None) sigs
  | Some _, (Equivocation _ | Absent _) | None, Present _ -> false

let validate keyring ~n ~f value =
  Array.length value.vector = n
  && Array.length value.proofs = n
  && (let non_bot =
        Array.fold_left
          (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
          0 value.vector
      in
      non_bot >= n - f)
  &&
  let ok = ref true in
  Array.iteri
    (fun j digest ->
      if not (proof_valid keyring ~f ~j ~digest value.proofs.(j)) then ok := false)
    value.vector;
  !ok

let value_digest value =
  let ctx = Crypto.Sha256.init () in
  Array.iteri
    (fun j d ->
      Crypto.Sha256.feed_string ctx
        (match d with
        | Some d -> Printf.sprintf "%d:%s" j (Digest32.raw d)
        | None -> Printf.sprintf "%d:bot" j))
    value.vector;
  Digest32.of_raw (Crypto.Sha256.finalize ctx)

let value_wire_size value =
  let entry_size = function
    | Present (_, sigs) ->
        Digest32.wire_size + ((1 + List.length sigs) * Signature.wire_size)
    | Equivocation _ -> (2 * Digest32.wire_size) + (2 * Signature.wire_size)
    | Absent sigs -> List.length sigs * Signature.wire_size
  in
  Array.fold_left
    (fun acc proof -> acc + Digest32.wire_size + entry_size proof)
    64 value.proofs
