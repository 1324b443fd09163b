type t = { signer : int; tag : string }

(* Domain-separate signing from other HMAC uses of the same secret. *)
let tag_of ring ~signer msg = Hmac.mac_with (Keyring.key ring signer) ~prefix:"sig\x00" msg

let sign ring ~signer msg = { signer; tag = tag_of ring ~signer msg }

let verify ring sg msg =
  Keyring.mem ring sg.signer && Hmac.equal sg.tag (tag_of ring ~signer:sg.signer msg)

let certifies ring ~quorum msg sigs =
  let rec distinct = function
    | [] -> true
    | s :: rest -> List.for_all (fun r -> r.signer <> s.signer) rest && distinct rest
  in
  List.length sigs >= quorum && distinct sigs
  && List.for_all (fun s -> verify ring s msg) sigs

let forge ~signer msg =
  { signer; tag = Sha256.digest_string ("forged\x00" ^ msg) }

let wire_size = 64

let equal a b = a.signer = b.signer && String.equal a.tag b.tag
