type t = {
  mutable buf : bytes;
  mutable len : int;
}

let create () = { buf = Bytes.create 256; len = 0 }

let clear t = t.len <- 0

let length t = t.len

(* Growth is split out of line so the feeders' fast path is a bare
   bounds check. *)
let grow t needed =
  let cap = ref (Bytes.length t.buf * 2) in
  while !cap < needed do cap := !cap * 2 done;
  let bigger = Bytes.create !cap in
  Bytes.blit t.buf 0 bigger 0 t.len;
  t.buf <- bigger

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.buf then grow t needed

let feed_char t c =
  ensure t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let feed_str t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

(* Digits are produced working in negative space so [min_int] (whose
   magnitude has no positive counterpart) needs no special case. *)
let rec feed_digits t m =
  if m <= -10 then feed_digits t (m / 10);
  feed_char t (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let feed_int t n =
  if n < 0 then begin
    feed_char t '-';
    feed_digits t n
  end
  else feed_digits t (-n)

let feed_fixed t x =
  (* [%.0f] of an exactly-representable integral double is just its
     digits; every other case (fractional needs round-half-to-even,
     [-0.] prints "-0", nan/inf) defers to the libc formatter. *)
  if Float.is_integer x && Float.abs x < 1e15 && not (x = 0. && 1. /. x < 0.)
  then feed_int t (int_of_float x)
  else feed_str t (Printf.sprintf "%.0f" x)

let contents t = Bytes.sub_string t.buf 0 t.len

let digest t =
  let ctx = Sha256.init () in
  Sha256.feed_bytes ctx t.buf ~pos:0 ~len:t.len;
  Sha256.finalize ctx

let feed_sha256 t ctx = Sha256.feed_bytes ctx t.buf ~pos:0 ~len:t.len
