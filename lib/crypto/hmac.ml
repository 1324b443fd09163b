let block_size = 64

type key = { inner : Sha256.state; outer : Sha256.state }

(* The two pad blocks are the same for every MAC under a key, so a key
   keeps the chaining words after each: the key (hashed first if longer
   than a block), zero-padded to a block and XORed with 0x36 for the
   inner hash and with 0x5c for the outer. *)
let key secret =
  let padded = Bytes.make block_size '\x00' in
  (if String.length secret > block_size then
     Bytes.blit_string (Sha256.digest_string secret) 0 padded 0 32
   else Bytes.blit_string secret 0 padded 0 (String.length secret));
  let pad_state byte =
    let ctx = Sha256.init () in
    Sha256.feed_bytes ctx
      (Bytes.map (fun c -> Char.unsafe_chr (Char.code c lxor byte)) padded)
      ~pos:0 ~len:block_size;
    Sha256.save ctx
  in
  { inner = pad_state 0x36; outer = pad_state 0x5c }

(* Both passes run in one fresh context resumed from the key's pad
   states, and [prefix] and [msg] are fed one after the other, so a MAC
   compresses neither pad block and copies no message. *)
let mac_with key ?(prefix = "") msg =
  let ctx = Sha256.init () in
  Sha256.resume ctx key.inner;
  Sha256.feed_string ctx prefix;
  Sha256.feed_string ctx msg;
  let inner = Sha256.finalize ctx in
  Sha256.resume ctx key.outer;
  Sha256.feed_string ctx inner;
  Sha256.finalize ctx

let mac ~key:secret msg = mac_with (key secret) msg

let mac_hex ~key msg = Sha256.hex_of_raw (mac ~key msg)

(* A loop over the indices, not a fold with a closure, so a compare
   allocates nothing. *)
let equal a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  for i = 0 to String.length a - 1 do
    diff := !diff lor (Char.code a.[i] lxor Char.code b.[i])
  done;
  !diff = 0
