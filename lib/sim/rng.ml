(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, passes BigCrush,
   and supports cheap stream splitting. *)

(* The state lives unboxed in 8 bytes, because a mutable [int64]
   record field boxes every state stored in it.  With the unboxed
   reads and writes below and [mix], [next_int64] and [float] inlined,
   an [int] draw allocates nothing and a [float] or [gaussian] draw
   only its boxed result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set t 0 seed;
  t

let seed_of_string s =
  let raw = Crypto.Sha256.digest_string s in
  let byte i = Int64.of_int (Char.code raw.[i]) in
  let seed = ref 0L in
  for i = 0 to 7 do
    seed := Int64.logor (Int64.shift_left !seed 8) (byte i)
  done;
  !seed

let of_string_seed s = create (seed_of_string s)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix64 = mix

let[@inline] next_int64 t =
  let state = Int64.add (get t 0) golden_gamma in
  set t 0 state;
  mix state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let[@inline] float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992. *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let range t ~min ~max =
  if max < min then invalid_arg "Rng.range: max < min";
  min + int t (max - min + 1)

let gaussian t ~mean ~stddev =
  let u1 = Float.max 1e-12 (float t 1.) in
  let u2 = float t 1. in
  mean +. (stddev *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | items -> List.nth items (int t (List.length items))

let split t = create (next_int64 t)
