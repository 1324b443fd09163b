(* SHA-256 per FIPS 180-4.

   The block compression is one C kernel (sha256_stubs.c): the x86-64
   SHA extensions where CPUID reports them, a plain C loop elsewhere.
   This module keeps the context, the partial-block buffer, the padding
   and the serialization of the chaining words. *)

type ctx = {
  h : int array;             (* 8 chaining words, 32-bit values *)
  block : bytes;             (* 64-byte input buffer *)
  mutable fill : int;        (* valid bytes in [block] *)
  mutable total : int;       (* total message bytes absorbed *)
}

(* [blocks h src off nblocks] compresses the [nblocks] whole blocks at
   [src.(off)..] into [h]; the caller checks the range.  It neither
   allocates nor raises, and every argument is a plain OCaml value, so
   one C function serves both bytecode and native code. *)
external blocks : int array -> bytes -> int -> int -> unit = "caml_sha256_blocks"
[@@noalloc]

external select_kernel : unit -> unit = "caml_sha256_select_kernel" [@@noalloc]

(* CPUID picks the kernel once, here, while the module initializes in
   the main domain: a choice made lazily on the first call could race
   when several domains make that call at once. *)
let () = select_kernel ()

let reset ctx =
  let h = ctx.h in
  h.(0) <- 0x6a09e667; h.(1) <- 0xbb67ae85; h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a; h.(4) <- 0x510e527f; h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab; h.(7) <- 0x5be0cd19;
  ctx.fill <- 0;
  ctx.total <- 0

let init () =
  let ctx = { h = Array.make 8 0; block = Bytes.create 64; fill = 0; total = 0 } in
  reset ctx;
  ctx

let feed_bytes ctx src ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length src - pos then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  (* Top up a partially filled block first. *)
  let topup = if ctx.fill = 0 then 0 else min (64 - ctx.fill) len in
  if topup > 0 then begin
    Bytes.blit src pos ctx.block ctx.fill topup;
    ctx.fill <- ctx.fill + topup;
    if ctx.fill = 64 then begin
      blocks ctx.h ctx.block 0 1;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks compress straight from the source in one call. *)
  let pos = pos + topup and len = len - topup in
  let whole = len / 64 in
  if whole > 0 then blocks ctx.h src pos whole;
  let tail = len - (whole * 64) in
  if tail > 0 then begin
    Bytes.blit src (pos + (whole * 64)) ctx.block 0 tail;
    ctx.fill <- tail
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
    blocks ctx.h ctx.block 0 1;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.of_int bit_length);
  blocks ctx.h ctx.block 0 1;
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
