type t = string

let size = 32

let of_raw d =
  if String.length d <> size then invalid_arg "Digest32.of_raw: need 32 bytes";
  d

let of_string s = Sha256.digest_string s
let raw t = t
let hex t = Sha256.hex_of_raw t
let short_hex t = String.sub (hex t) 0 10
let equal = String.equal
let wire_size = size
