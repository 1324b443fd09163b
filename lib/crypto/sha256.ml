(* SHA-256 per FIPS 180-4.

   All word arithmetic runs on untagged native [int] (OCaml ints are at
   least 63-bit on every supported platform) with explicit
   [land 0xFFFFFFFF] masking, so no intermediate word is ever boxed.
   [Int32] appears only at the API boundary: block loads go through
   [Bytes.get_int32_be] and the chaining state is serialized with
   [Bytes.set_int32_be] in [finalize].

   Masking discipline: additions only propagate carries upward and the
   bitwise mixes are applied to masked inputs, so garbage above bit 31
   is harmless until a value feeds a right-shift — one [land mask32] at
   each store of a state or schedule word keeps everything exact. *)

let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;             (* 8 chaining words, 32-bit values *)
  block : bytes;             (* 64-byte input buffer *)
  mutable fill : int;        (* valid bytes in [block] *)
  mutable total : int;       (* total message bytes absorbed *)
  w : int array;             (* 64-word message schedule, reused *)
}

let reset ctx =
  let h = ctx.h in
  h.(0) <- 0x6a09e667; h.(1) <- 0xbb67ae85; h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a; h.(4) <- 0x510e527f; h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab; h.(7) <- 0x5be0cd19;
  ctx.fill <- 0;
  ctx.total <- 0

let init () =
  let ctx =
    { h = Array.make 8 0; block = Bytes.create 64; fill = 0; total = 0;
      w = Array.make 64 0 }
  in
  reset ctx;
  ctx

(* The 64 rounds of one compression, added into [ctx.h].  The working
   state lives in the arguments of a tail-recursive loop, so the eight
   words stay in registers.  Eight rounds are unrolled per step in the
   in-place formulation (each round rewrites exactly two words; the
   register roles rotate through the unrolled body and return to their
   starting positions after eight rounds).  Rotations are written out
   by hand (the classic compiler does not reliably inline through a
   helper); Ch and Maj use the 3/4-op forms
    [Ch = g ^ (e & (f ^ g))] and [Maj = a ^ ((a ^ b) & (a ^ c))].  The
   loop is top-level and reaches the schedule and chaining words
   through [ctx], so compressing a block allocates no closure. *)
let rec rounds ctx a b c d e f g hh t =
  if t = 64 then begin
    let h = ctx.h in
    h.(0) <- (h.(0) + a) land mask32;
    h.(1) <- (h.(1) + b) land mask32;
    h.(2) <- (h.(2) + c) land mask32;
    h.(3) <- (h.(3) + d) land mask32;
    h.(4) <- (h.(4) + e) land mask32;
    h.(5) <- (h.(5) + f) land mask32;
    h.(6) <- (h.(6) + g) land mask32;
    h.(7) <- (h.(7) + hh) land mask32
  end
  else begin
    let w = ctx.w in
    (* round t: A=a B=b C=c D=d E=e F=f G=g H=hh *)
    let t1 =
      hh
      + (((e lsr 6) lor (e lsl 26)) lxor ((e lsr 11) lor (e lsl 21))
         lxor ((e lsr 25) lor (e lsl 7)))
      + (g lxor (e land (f lxor g)))
      + Array.unsafe_get k t + Array.unsafe_get w t
    in
    let d = (d + t1) land mask32
    and hh =
      (t1
       + (((a lsr 2) lor (a lsl 30)) lxor ((a lsr 13) lor (a lsl 19))
          lxor ((a lsr 22) lor (a lsl 10)))
       + (a lxor ((a lxor b) land (a lxor c))))
      land mask32
    in
    (* round t+1: A=hh B=a C=b D=c E=d F=e G=f H=g *)
    let t1 =
      g
      + (((d lsr 6) lor (d lsl 26)) lxor ((d lsr 11) lor (d lsl 21))
         lxor ((d lsr 25) lor (d lsl 7)))
      + (f lxor (d land (e lxor f)))
      + Array.unsafe_get k (t + 1) + Array.unsafe_get w (t + 1)
    in
    let c = (c + t1) land mask32
    and g =
      (t1
       + (((hh lsr 2) lor (hh lsl 30)) lxor ((hh lsr 13) lor (hh lsl 19))
          lxor ((hh lsr 22) lor (hh lsl 10)))
       + (hh lxor ((hh lxor a) land (hh lxor b))))
      land mask32
    in
    (* round t+2: A=g B=hh C=a D=b E=c F=d G=e H=f *)
    let t1 =
      f
      + (((c lsr 6) lor (c lsl 26)) lxor ((c lsr 11) lor (c lsl 21))
         lxor ((c lsr 25) lor (c lsl 7)))
      + (e lxor (c land (d lxor e)))
      + Array.unsafe_get k (t + 2) + Array.unsafe_get w (t + 2)
    in
    let b = (b + t1) land mask32
    and f =
      (t1
       + (((g lsr 2) lor (g lsl 30)) lxor ((g lsr 13) lor (g lsl 19))
          lxor ((g lsr 22) lor (g lsl 10)))
       + (g lxor ((g lxor hh) land (g lxor a))))
      land mask32
    in
    (* round t+3: A=f B=g C=hh D=a E=b F=c G=d H=e *)
    let t1 =
      e
      + (((b lsr 6) lor (b lsl 26)) lxor ((b lsr 11) lor (b lsl 21))
         lxor ((b lsr 25) lor (b lsl 7)))
      + (d lxor (b land (c lxor d)))
      + Array.unsafe_get k (t + 3) + Array.unsafe_get w (t + 3)
    in
    let a = (a + t1) land mask32
    and e =
      (t1
       + (((f lsr 2) lor (f lsl 30)) lxor ((f lsr 13) lor (f lsl 19))
          lxor ((f lsr 22) lor (f lsl 10)))
       + (f lxor ((f lxor g) land (f lxor hh))))
      land mask32
    in
    (* round t+4: A=e B=f C=g D=hh E=a F=b G=c H=d *)
    let t1 =
      d
      + (((a lsr 6) lor (a lsl 26)) lxor ((a lsr 11) lor (a lsl 21))
         lxor ((a lsr 25) lor (a lsl 7)))
      + (c lxor (a land (b lxor c)))
      + Array.unsafe_get k (t + 4) + Array.unsafe_get w (t + 4)
    in
    let hh = (hh + t1) land mask32
    and d =
      (t1
       + (((e lsr 2) lor (e lsl 30)) lxor ((e lsr 13) lor (e lsl 19))
          lxor ((e lsr 22) lor (e lsl 10)))
       + (e lxor ((e lxor f) land (e lxor g))))
      land mask32
    in
    (* round t+5: A=d B=e C=f D=g E=hh F=a G=b H=c *)
    let t1 =
      c
      + (((hh lsr 6) lor (hh lsl 26)) lxor ((hh lsr 11) lor (hh lsl 21))
         lxor ((hh lsr 25) lor (hh lsl 7)))
      + (b lxor (hh land (a lxor b)))
      + Array.unsafe_get k (t + 5) + Array.unsafe_get w (t + 5)
    in
    let g = (g + t1) land mask32
    and c =
      (t1
       + (((d lsr 2) lor (d lsl 30)) lxor ((d lsr 13) lor (d lsl 19))
          lxor ((d lsr 22) lor (d lsl 10)))
       + (d lxor ((d lxor e) land (d lxor f))))
      land mask32
    in
    (* round t+6: A=c B=d C=e D=f E=g F=hh G=a H=b *)
    let t1 =
      b
      + (((g lsr 6) lor (g lsl 26)) lxor ((g lsr 11) lor (g lsl 21))
         lxor ((g lsr 25) lor (g lsl 7)))
      + (a lxor (g land (hh lxor a)))
      + Array.unsafe_get k (t + 6) + Array.unsafe_get w (t + 6)
    in
    let f = (f + t1) land mask32
    and b =
      (t1
       + (((c lsr 2) lor (c lsl 30)) lxor ((c lsr 13) lor (c lsl 19))
          lxor ((c lsr 22) lor (c lsl 10)))
       + (c lxor ((c lxor d) land (c lxor e))))
      land mask32
    in
    (* round t+7: A=b B=c C=d D=e E=f F=g G=hh H=a *)
    let t1 =
      a
      + (((f lsr 6) lor (f lsl 26)) lxor ((f lsr 11) lor (f lsl 21))
         lxor ((f lsr 25) lor (f lsl 7)))
      + (hh lxor (f land (g lxor hh)))
      + Array.unsafe_get k (t + 7) + Array.unsafe_get w (t + 7)
    in
    let e = (e + t1) land mask32
    and a =
      (t1
       + (((b lsr 2) lor (b lsl 30)) lxor ((b lsr 13) lor (b lsl 19))
          lxor ((b lsr 22) lor (b lsl 10)))
       + (b lxor ((b lxor c) land (b lxor d))))
      land mask32
    in
    rounds ctx a b c d e f g hh (t + 8)
  end

(* Compress the 64-byte block at [b.(off)..]. *)
let compress ctx b off =
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (Bytes.get_int32_be b (off + (t * 4))) land mask32)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) in
    let s0 =
      ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3)
    in
    let y = Array.unsafe_get w (t - 2) in
    let s1 =
      ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10)
    in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
       land mask32)
  done;
  let h = ctx.h in
  rounds ctx h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7) 0

let feed_bytes ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let remaining = ref len and offset = ref pos in
  (* Top up a partially filled block first. *)
  if ctx.fill > 0 then begin
    let chunk = min (64 - ctx.fill) !remaining in
    Bytes.blit src !offset ctx.block ctx.fill chunk;
    ctx.fill <- ctx.fill + chunk;
    offset := !offset + chunk;
    remaining := !remaining - chunk;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks compress straight from the source, no copy. *)
  while !remaining >= 64 do
    compress ctx src !offset;
    offset := !offset + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !offset ctx.block 0 !remaining;
    ctx.fill <- !remaining
  end

let feed_string ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  let bit_length = ctx.total * 8 in
  (* Append 0x80, zero-pad to 56 mod 64, then the 64-bit big-endian length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress ctx ctx.block 0;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int bit_length);
  compress ctx ctx.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let hex = "0123456789abcdef"

let hex_of_raw d =
  let n = String.length d in
  let out = Bytes.create (n * 2) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get d i) in
    Bytes.unsafe_set out (i * 2) (String.unsafe_get hex (c lsr 4));
    Bytes.unsafe_set out ((i * 2) + 1) (String.unsafe_get hex (c land 0xF))
  done;
  Bytes.unsafe_to_string out

let digest_hex s = hex_of_raw (digest_string s)
