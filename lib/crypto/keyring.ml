type t = { keys : Hmac.key array; fingerprints : string array }

let create ?(seed = "torpartial-pki") ~n () =
  if n <= 0 then invalid_arg "Keyring.create: n must be positive";
  let derive id = Hmac.mac ~key:seed (Printf.sprintf "node-secret-%d" id) in
  let secrets = Array.init n derive in
  let fingerprints =
    Array.init n (fun id ->
        let hex = Sha256.digest_hex ("identity-" ^ secrets.(id)) in
        String.uppercase_ascii (String.sub hex 0 40))
  in
  { keys = Array.map Hmac.key secrets; fingerprints }

let size t = Array.length t.keys

let check t id name =
  if id < 0 || id >= size t then invalid_arg ("Keyring." ^ name ^ ": bad node id")

let key t id =
  check t id "key";
  t.keys.(id)

let fingerprint t id =
  check t id "fingerprint";
  t.fingerprints.(id)

let mem t id = id >= 0 && id < size t
